"""Property tests for the summary-backed LST observation path.

Observation reads each table's per-snapshot
:class:`~repro.lst.snapshot.SizeSummary` instead of walking live files, and
commits derive the new live set by set algebra instead of rebuilding it.
Both must be invisible: after any sequence of appends, overwrites,
row-deltas, rewrites, expirations, checkpoint restores and policy-target
changes, on every table format,

* ``LstConnector.build_statistics`` equals
  ``build_candidate_statistics`` over :meth:`LstConnector.files_for` —
  the per-file oracle — for table-, partition- and snapshot-scope keys,
  byte for byte; and
* every committed snapshot's ``live_files``/``delete_files`` equal the
  by-id construction from its parent and the commit's delta.
"""

from __future__ import annotations

import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, TablePolicy, build_candidate_statistics
from repro.core import CandidateKey, CandidateScope, LstConnector
from repro.errors import CommitConflictError
from repro.lst import Field, IdentityTransform, PartitionField, PartitionSpec, Schema
from repro.units import MiB

NAME = "db.t"
SIZES = (1 * MiB, 3 * MiB, 8 * MiB, 20 * MiB)
TARGETS = (2 * MiB, 8 * MiB, 16 * MiB, 512 * MiB)
KINDS = (
    "append",
    "overwrite",
    "overwrite_stale",
    "rowdelta",
    "rowdelta_stale",
    "rewrite",
    "expire",
    "restore",
    "target",
)

operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=2),  # partition
        st.integers(min_value=0, max_value=3),  # size / target / retention index
        st.booleans(),  # make stale: another append commits first
    ),
    min_size=1,
    max_size=20,
)


def _snapshot_oracle(table, operation, added_data, added_deletes, removed_ids):
    """The by-id live-set construction every commit must reproduce."""
    snapshot = table.current_snapshot()
    parent = table.snapshot(snapshot.parent_id) if snapshot.parent_id is not None else None
    old_files = parent.live_files if parent else frozenset()
    old_deletes = parent.delete_files if parent else frozenset()
    files = frozenset(f for f in old_files if f.file_id not in removed_ids)
    files |= frozenset(added_data)
    live_ids = frozenset(f.file_id for f in files)
    deletes = frozenset(d for d in old_deletes if d.references & live_ids)
    deletes |= frozenset(added_deletes)
    assert snapshot.live_files == files
    assert snapshot.delete_files == deletes
    assert snapshot.summary["total-data-files"] == len(files)


def _create(catalog: Catalog, table_format: str, partitioned: bool, policy=None):
    schema = Schema.of(Field("id", "long"), Field("p", "int"))
    spec = PartitionSpec.of(PartitionField("p", IdentityTransform())) if partitioned else None
    table = catalog.create_table(
        NAME, schema, spec=spec, table_format=table_format, policy=policy
    )
    table.commit_hooks.append(_snapshot_oracle)
    return table


def _restore(catalog: Catalog, table_format: str, partitioned: bool, connector):
    """Drop the table and re-create it from a checkpoint of its live layout."""
    old = catalog.load_table(NAME)
    policy = catalog.policy(NAME)
    snapshot = old.current_snapshot()
    state = dict(
        version=old.version,
        next_file_id=old._next_file_id,
        next_snapshot_id=old._next_snapshot_id,
        current_snapshot_id=snapshot.snapshot_id if snapshot else None,
        created_at=old.created_at,
        last_modified_at=old.last_modified_at,
        files=[(f.file_id, f.partition, f.size_bytes) for f in old.live_files()],
        deletes=[
            (d.file_id, d.partition, d.size_bytes, d.references)
            for d in (snapshot.delete_files if snapshot else ())
        ],
        partition_mtimes=dict(old._partition_last_modified),
    )
    catalog.drop_table(NAME)
    table = _create(catalog, table_format, partitioned, policy=policy)
    # Observe the empty table first, so its summary slot holds a value the
    # restore must invalidate.
    _check_statistics(catalog, connector)
    table.restore_state(**state)
    return table


def _fields(statistics) -> bytes:
    fields = {f.name: getattr(statistics, f.name) for f in dataclasses.fields(statistics)}
    fields["custom"] = dict(statistics.custom)
    return pickle.dumps(fields)


def _oracle_statistics(catalog: Catalog, connector: LstConnector, key: CandidateKey):
    """Statistics rebuilt from the per-file listing, as observation used to."""
    table = catalog.load_table(NAME)
    files = connector.files_for(key)
    if key.scope is CandidateScope.PARTITION:
        partition_count = 1
        last_modified = table.partition_last_modified(key.partition)
    else:
        partition_count = max(len({f.partition for f in files}), 1)
        last_modified = table.last_modified_at
    return build_candidate_statistics(
        tuple(f.size_bytes for f in files),
        catalog.policy(NAME).target_file_size,
        partition_count,
        table.delete_file_count,
        table.created_at,
        last_modified,
        catalog.quota_utilization("db"),
    )


def _check_statistics(catalog: Catalog, connector: LstConnector) -> None:
    table = catalog.load_table(NAME)
    assert table.partitions() == sorted({f.partition for f in table.live_files()})
    keys = [CandidateKey("db", "t", CandidateScope.TABLE)]
    partitions = table.partitions() + [(7,) if table.spec.is_partitioned else ()]
    keys += [
        CandidateKey("db", "t", CandidateScope.PARTITION, partition=partition)
        for partition in partitions
    ]
    keys += [connector.snapshot_candidate(table, s.snapshot_id) for s in table.snapshots()]
    for key in keys:
        assert _fields(connector.build_statistics(key)) == _fields(
            _oracle_statistics(catalog, connector, key)
        ), f"{key} diverged from the per-file oracle"


class TestSummaryObservationProperties:
    @given(
        table_format=st.sampled_from(["iceberg", "delta", "hudi"]),
        partitioned=st.booleans(),
        ops=operations,
    )
    @settings(max_examples=60, deadline=None)
    def test_summary_statistics_match_the_per_file_oracle(
        self, table_format, partitioned, ops
    ):
        catalog = Catalog()
        catalog.create_database("db", quota_objects=10_000)
        table = _create(catalog, table_format, partitioned)
        connector = LstConnector(catalog)
        stale = []  # files some earlier commit removed

        def part(index: int) -> tuple:
            return (index,) if partitioned else ()

        seed = table.new_append()
        for index in range(3):
            seed.add_file(SIZES[index], partition=part(index))
        seed.commit()
        _check_statistics(catalog, connector)

        for kind, index, size_index, make_stale in ops:
            catalog.clock.advance_by(10)
            table = catalog.load_table(NAME)
            files = [f for f in table.live_files() if f.partition == part(index)]
            txn = None
            if kind == "append":
                txn = table.new_append()
                txn.add_file(SIZES[size_index], partition=part(index))
            elif kind == "overwrite" and files:
                txn = table.new_overwrite()
                txn.delete_file(files[0])
                txn.add_file(SIZES[size_index], partition=part(index))
                stale.append(files[0])
            elif kind == "overwrite_stale" and stale:
                # Removing a file that is no longer live (no concurrent
                # commit, so validation does not run).
                txn = table.new_overwrite()
                txn.delete_file(stale[index % len(stale)])
            elif kind == "rowdelta" and files:
                txn = table.new_row_delta()
                txn.add_deletes(SIZES[0], files[:2])
            elif kind == "rowdelta_stale" and stale:
                txn = table.new_row_delta()
                txn.add_deletes(SIZES[0], [stale[index % len(stale)]])
            elif kind == "rewrite" and len(files) >= 2:
                txn = table.new_rewrite()
                txn.rewrite(files, [sum(f.size_bytes for f in files)])
                stale.extend(files)
            elif kind == "expire":
                older_than = None if size_index % 2 else catalog.clock.now - 25
                table.expire_snapshots(older_than=older_than, retain_last=1 + size_index)
            elif kind == "restore":
                _restore(catalog, table_format, partitioned, connector)
            elif kind == "target":
                catalog.set_policy(NAME, TablePolicy(target_file_size=TARGETS[size_index]))
            if txn is not None:
                if make_stale:
                    interloper = table.new_append()
                    interloper.add_file(SIZES[1], partition=part(index))
                    interloper.commit()
                try:
                    txn.commit()
                except CommitConflictError:
                    pass
            _check_statistics(catalog, connector)
