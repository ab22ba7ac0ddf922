"""Table snapshots and their file-size summaries.

Each successful commit produces an immutable :class:`Snapshot` capturing the
complete live file set at that version.  Storing the live set per snapshot
(rather than replaying logs) keeps time-travel, expiration and conflict
validation simple and O(1) to query, at the cost of sharing frozensets
between snapshots — acceptable at simulation scale and semantically
identical to manifest reachability in Iceberg.

A :class:`SizeSummary` condenses one snapshot's live data files into the
size columns the observe phase reads, so statistics for table- and
partition-scope candidates cost O(1) per cycle once the summary exists
instead of one pass over every live file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.lst.files import DataFile, DeleteFile


@dataclass(frozen=True)
class Snapshot:
    """One committed table version.

    Snapshots are immutable and carry no derived caches beyond
    :attr:`ordered_files`: hot tables retain hundreds of snapshots between
    compactions, so observation summaries live in one per-table slot
    (:meth:`~repro.lst.base.BaseTable.size_summary`) for the *current*
    snapshot only.

    Attributes:
        snapshot_id: unique, monotonically increasing per table.
        parent_id: snapshot this one was derived from (None for the first).
        sequence_number: commit sequence (equals the metadata version).
        timestamp: simulated commit time in seconds.
        operation: one of ``append``, ``overwrite``, ``delete``, ``replace``
            (compaction) — Iceberg's operation vocabulary.
        live_files: all data files readable at this version.
        delete_files: all merge-on-read delete files in force.
        manifest_paths: metadata manifests reachable from this snapshot; the
            engine's planning cost scales with this list's length.
        exclusive_metadata_paths: metadata files owned solely by this
            snapshot (e.g. Iceberg's manifest list and metadata JSON);
            deleted when the snapshot expires.
        summary: counters describing the commit (added/removed files etc.).
    """

    snapshot_id: int
    parent_id: int | None
    sequence_number: int
    timestamp: float
    operation: str
    live_files: frozenset[DataFile]
    delete_files: frozenset[DeleteFile] = frozenset()
    manifest_paths: tuple[str, ...] = ()
    exclusive_metadata_paths: tuple[str, ...] = ()
    summary: dict[str, int] = field(default_factory=dict)

    @cached_property
    def ordered_files(self) -> tuple[DataFile, ...]:
        """Live data files in deterministic (``file_id``) order.

        Snapshots are immutable, so full scans, rewrite planning and the
        table's :class:`SizeSummary` of the same version share one sort
        instead of re-sorting per read.
        """
        return tuple(sorted(self.live_files, key=lambda f: f.file_id))

    @property
    def data_file_count(self) -> int:
        """Number of live data files."""
        return len(self.live_files)

    @property
    def delete_file_count(self) -> int:
        """Number of live delete files."""
        return len(self.delete_files)

    @property
    def total_data_bytes(self) -> int:
        """Total bytes across live data files."""
        return sum(f.size_bytes for f in self.live_files)

    def files_in_partition(self, partition: tuple) -> list[DataFile]:
        """Live data files belonging to ``partition``."""
        return [f for f in self.live_files if f.partition == partition]

    def partitions(self) -> list[tuple]:
        """Distinct partitions holding live files, sorted."""
        return sorted({f.partition for f in self.live_files})


class SizeSummary:
    """Live data-file sizes of one snapshot, in the shapes observation reads.

    Built once per snapshot from :attr:`Snapshot.ordered_files` and then
    read by every observation of that version.  The size columns
    are immutable; the only mutable part is a memo of
    ``(count, total, small_count, small_bytes)`` keyed by
    ``(partition, target_file_size)``, whose entries are pure functions of
    those columns — concurrent readers racing on a miss store equal values.

    Attributes:
        snapshot: the snapshot summarised (None for a never-written table);
            the owning table compares it by identity to detect staleness.
        sizes: every live data file's size, in ``file_id`` order.
        partition_sizes: partition tuple → its files' sizes in ``file_id``
            order, for partitions holding live files.
    """

    __slots__ = ("snapshot", "sizes", "partition_sizes", "_counts")

    def __init__(self, snapshot: Snapshot | None) -> None:
        files = snapshot.ordered_files if snapshot is not None else ()
        by_partition: dict[tuple, list[int]] = {}
        for f in files:
            by_partition.setdefault(f.partition, []).append(f.size_bytes)
        self.snapshot = snapshot
        self.sizes: tuple[int, ...] = tuple(f.size_bytes for f in files)
        self.partition_sizes: dict[tuple, tuple[int, ...]] = {
            partition: tuple(sizes) for partition, sizes in by_partition.items()
        }
        self._counts: dict[tuple, tuple[int, int, int, int]] = {}

    @property
    def partition_count(self) -> int:
        """Distinct partitions holding live files."""
        return len(self.partition_sizes)

    def sizes_in(self, partition: tuple | None = None) -> tuple[int, ...]:
        """Sizes of one partition's files (None = the whole table)."""
        if partition is None:
            return self.sizes
        return self.partition_sizes.get(partition, ())

    def counts(
        self, target_file_size: int, partition: tuple | None = None
    ) -> tuple[int, int, int, int]:
        """``(file_count, total_bytes, small_file_count, small_file_bytes)``.

        Small means strictly below ``target_file_size``, exactly as
        :meth:`~repro.core.candidates.CandidateStatistics.from_file_sizes`
        counts it.  ``partition`` None covers the whole table.
        """
        memo_key = (partition, target_file_size)
        counts = self._counts.get(memo_key)
        if counts is None:
            sizes = self.sizes_in(partition)
            small = [s for s in sizes if s < target_file_size]
            counts = (len(sizes), sum(sizes), len(small), sum(small))
            self._counts[memo_key] = counts
        return counts
