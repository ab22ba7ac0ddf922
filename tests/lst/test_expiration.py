"""Tests for snapshot expiration and physical cleanup."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.units import MiB

from tests.conftest import fragment_table


class TestExpireSnapshots:
    def test_expire_nothing_on_fresh_table(self, table):
        assert table.expire_snapshots() == 0

    def test_replaced_files_deleted_after_rewrite_and_expire(self, fragmented_table, fs):
        table = fragmented_table
        sources = [f for f in table.live_files() if f.partition == (0,)]
        txn = table.new_rewrite()
        txn.rewrite(sources, [sum(f.size_bytes for f in sources)])
        txn.commit()
        # Old snapshot still references the replaced files: nothing deleted yet.
        for source in sources:
            assert fs.namenode.exists(source.path)
        deleted = table.expire_snapshots()
        # The replaced data files plus the expired snapshot's metadata
        # (manifest list + metadata JSON + unreferenced manifest).
        assert deleted == len(sources) + 3
        for source in sources:
            assert not fs.namenode.exists(source.path)

    def test_current_snapshot_always_retained(self, fragmented_table):
        table = fragmented_table
        table.expire_snapshots(older_than=float("inf"))
        assert table.current_snapshot() is not None
        assert len(table.snapshots()) == 1

    def test_retain_last_keeps_tail(self, table, clock):
        for i in range(4):
            clock.advance_by(100)
            fragment_table(table, partitions=[(i,)], files_per_partition=1)
        table.expire_snapshots(retain_last=3)
        assert len(table.snapshots()) == 3

    def test_older_than_cutoff(self, table, clock):
        fragment_table(table, partitions=[(0,)], files_per_partition=1)
        clock.advance_by(1000)
        fragment_table(table, partitions=[(1,)], files_per_partition=1)
        clock.advance_by(1000)
        fragment_table(table, partitions=[(2,)], files_per_partition=1)
        # Only the first snapshot (t=0) is older than the cutoff.
        table.expire_snapshots(older_than=500.0, retain_last=1)
        assert len(table.snapshots()) == 2

    def test_files_still_referenced_by_retained_snapshots_survive(self, table, fs, clock):
        fragment_table(table, partitions=[(0,)], files_per_partition=2)
        clock.advance_by(10)
        fragment_table(table, partitions=[(1,)], files_per_partition=1)
        data_paths = [f.path for f in table.live_files()]
        # All three files are live in the current snapshot; expiring the
        # first snapshot must not delete any data (only that snapshot's
        # exclusive metadata: its manifest list and metadata JSON).
        deleted = table.expire_snapshots()
        assert deleted == 2
        assert table.data_file_count == 3
        assert all(fs.namenode.exists(path) for path in data_paths)

    def test_invalid_retain_last(self, table):
        with pytest.raises(ValidationError):
            table.expire_snapshots(retain_last=0)

    def test_expire_counts_delete_files(self, fragmented_table, fs):
        table = fragmented_table
        targets = [f for f in table.live_files() if f.partition == (0,)]
        delta = table.new_row_delta()
        delta.add_deletes(MiB, targets)
        delete_path = delta.commit().delete_files.__iter__().__next__().path
        txn = table.new_rewrite()
        txn.rewrite(targets, [sum(f.size_bytes for f in targets)])
        txn.commit()
        deleted = table.expire_snapshots()
        # 10 data files + 1 delete file physically removed, plus the
        # expired snapshots' metadata (exclusive files and manifests no
        # retained snapshot references).
        assert deleted >= len(targets) + 1
        assert all(not fs.namenode.exists(f.path) for f in targets)
        assert not fs.namenode.exists(delete_path)

    def test_expired_metadata_cleaned(self, table, fs, clock):
        """Old manifest lists / metadata JSONs don't accumulate forever."""
        for i in range(5):
            clock.advance_by(100)
            fragment_table(table, partitions=[(i,)], files_per_partition=1)
        metadata_before = fs.file_count(f"{table.location}/metadata")
        table.expire_snapshots(retain_last=1)
        metadata_after = fs.file_count(f"{table.location}/metadata")
        # Four expired snapshots each owned a manifest list + metadata JSON;
        # their manifests are still referenced by the current snapshot.
        assert metadata_after == metadata_before - 8
        # The current snapshot's planning inputs all still exist.
        for path in table.current_snapshot().manifest_paths:
            assert fs.namenode.exists(path)


def _expected_expiration(table, older_than, retain_last):
    """Retained ids and deleted paths by the documented rule, computed
    independently: the last ``retain_last`` snapshots plus every snapshot
    newer than ``older_than`` stay; files reachable only from expired
    snapshots, their exclusive metadata and manifests no retained snapshot
    lists go."""
    ordered = table.snapshots()
    cutoff = float("inf") if older_than is None else older_than
    tail = ordered[len(ordered) - retain_last :]
    retained = [
        s for s in ordered if any(s is t for t in tail) or s.timestamp > cutoff
    ]
    expired = [s for s in ordered if all(s is not r for r in retained)]
    reachable = {f.file_id for s in retained for f in s.live_files | s.delete_files}
    manifests = {path for s in retained for path in s.manifest_paths}
    paths = set()
    for snap in expired:
        paths |= {
            f.path for f in snap.live_files | snap.delete_files if f.file_id not in reachable
        }
        paths |= set(snap.exclusive_metadata_paths)
        paths |= {path for path in snap.manifest_paths if path not in manifests}
    return [s.snapshot_id for s in retained], paths


class TestExpirationOutcome:
    @pytest.mark.parametrize("retain_last", [1, 3])
    @pytest.mark.parametrize("cutoff", [None, 450.0])
    def test_retained_ids_and_deleted_paths(self, table, fs, clock, retain_last, cutoff):
        # Eight commits 100 s apart: appends, a row-delta, a rewrite and an
        # overwrite, so expiration sees shared and exclusive files of every
        # kind.
        for i in range(4):
            clock.advance_by(100)
            fragment_table(table, partitions=[(i % 2,)], files_per_partition=2)
        clock.advance_by(100)
        delta = table.new_row_delta()
        delta.add_deletes(MiB, [f for f in table.live_files() if f.partition == (0,)][:2])
        delta.commit()
        clock.advance_by(100)
        sources = [f for f in table.live_files() if f.partition == (0,)]
        rewrite = table.new_rewrite()
        rewrite.rewrite(sources, [sum(f.size_bytes for f in sources)])
        rewrite.commit()
        clock.advance_by(100)
        victim = next(f for f in table.live_files() if f.partition == (1,))
        overwrite = table.new_overwrite()
        overwrite.delete_file(victim)
        overwrite.add_file(victim.size_bytes, partition=(1,))
        overwrite.commit()
        clock.advance_by(100)
        fragment_table(table, partitions=[(1,)], files_per_partition=1)

        retained_ids, expected_paths = _expected_expiration(table, cutoff, retain_last)
        present = {info.path for info in fs.namenode.files_under("/")}
        deleted = table.expire_snapshots(older_than=cutoff, retain_last=retain_last)
        gone = present - {info.path for info in fs.namenode.files_under("/")}
        assert [s.snapshot_id for s in table.snapshots()] == retained_ids
        assert gone == expected_paths & present
        assert deleted == len(gone) > 0
