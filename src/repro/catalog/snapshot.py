"""Picklable catalog snapshots: frozen table-metadata slices for workers.

The scale-out control plane's process workers
(:mod:`repro.core.workers`) cannot touch a live
:class:`~repro.catalog.catalog.Catalog` — open tables hold clocks,
filesystems and commit logs that must not cross a process boundary.  What
*can* cross is a frozen slice of exactly the metadata one observation
needs: per-candidate file sizes, the policy's target file size, partition
counts, delete-file counts, timestamps, quota utilisation — plus each
table's metadata ``version`` as the freshness token the worker's cache
delta carries back.

:class:`CatalogObservationSlice` is that slice.  It satisfies the
``snapshot`` payload contract of
:class:`~repro.core.workers.ShardWorkSpec` (``__len__`` plus
``statistics(i)``), and both it and the live
:class:`~repro.core.connectors.LstConnector` path build their statistics
through the same :func:`build_candidate_statistics`, so a worker-observed
candidate is value-identical to a coordinator-observed one — the property
the modes' byte-identical cycle reports rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError


def build_candidate_statistics(
    file_sizes,
    target_file_size: int,
    partition_count: int,
    delete_file_count: int,
    created_at: float,
    last_modified_at: float,
    quota_utilization: float,
    size_counts: tuple[int, int, int, int] | None = None,
):
    """The single statistics constructor behind live and snapshot observation.

    Both :meth:`LstConnector.build_statistics
    <repro.core.connectors.LstConnector>` and
    :meth:`CatalogObservationSlice.statistics` call this, so the two paths
    cannot drift — a shard worker reconstructing statistics from a
    snapshot row produces exactly the object a live observation would.

    Args:
        size_counts: ``(file_count, total_bytes, small_file_count,
            small_file_bytes)`` already derived from ``file_sizes`` against
            ``target_file_size`` (a
            :meth:`~repro.lst.snapshot.SizeSummary.counts` memo); None
            derives them here.  Either way the validating
            :class:`~repro.core.candidates.CandidateStatistics`
            constructor builds the result.
    """
    # Imported lazily: this module is reachable from ``repro.catalog``
    # before ``repro.core`` finishes initialising (core imports catalog),
    # so a module-level import could bite during partial initialisation.
    from repro.core.candidates import CandidateStatistics

    if size_counts is None:
        return CandidateStatistics.from_file_sizes(
            list(file_sizes),
            target_file_size=target_file_size,
            partition_count=partition_count,
            delete_file_count=delete_file_count,
            created_at=created_at,
            last_modified_at=last_modified_at,
            quota_utilization=quota_utilization,
        )
    file_count, total_bytes, small_file_count, small_file_bytes = size_counts
    return CandidateStatistics(
        file_count=file_count,
        total_bytes=total_bytes,
        small_file_count=small_file_count,
        small_file_bytes=small_file_bytes,
        target_file_size=target_file_size,
        file_sizes=tuple(file_sizes),
        partition_count=partition_count,
        delete_file_count=delete_file_count,
        created_at=created_at,
        last_modified_at=last_modified_at,
        quota_utilization=quota_utilization,
    )


def build_candidate_statistics_batch(
    columns: dict,
    sizes: list | None = None,
    size_offsets: list | None = None,
) -> list:
    """Vectorised batch twin of :func:`build_candidate_statistics`.

    The columnar worker transport (:mod:`repro.core.columnar`) hands this
    per-field scalar lists (already materialised from its int64/float64
    arrays via ``tolist()``, so every value is an exact Python scalar) and
    optionally the concatenated file-size list with per-candidate offsets.
    Statistics come from the trusted
    :meth:`~repro.core.candidates.CandidateStatistics.build_unchecked`
    constructor — the aggregates were computed by exact integer array
    sums, making each row value-identical to a
    :func:`build_candidate_statistics` call over the same inputs.

    Args:
        columns: name → per-candidate list for every scalar
            :class:`~repro.core.candidates.CandidateStatistics` field
            (``file_count`` … ``quota_utilization``).
        sizes: all candidates' file sizes concatenated, or None when the
            source tracks no per-file detail (rows then carry empty
            ``file_sizes``).
        size_offsets: ``n + 1`` offsets delimiting candidate ``i``'s sizes
            as ``sizes[size_offsets[i]:size_offsets[i + 1]]``.
    """
    from repro.core.candidates import CandidateStatistics

    build = CandidateStatistics.build_unchecked
    file_count = columns["file_count"]
    total_bytes = columns["total_bytes"]
    small_count = columns["small_file_count"]
    small_bytes = columns["small_file_bytes"]
    target = columns["target_file_size"]
    partitions = columns["partition_count"]
    deletes = columns["delete_file_count"]
    created = columns["created_at"]
    modified = columns["last_modified_at"]
    quota = columns["quota_utilization"]
    out = []
    for i in range(len(file_count)):
        file_sizes: tuple = ()
        if sizes is not None:
            file_sizes = tuple(sizes[size_offsets[i] : size_offsets[i + 1]])
        out.append(
            build(
                file_count=file_count[i],
                total_bytes=total_bytes[i],
                small_file_count=small_count[i],
                small_file_bytes=small_bytes[i],
                target_file_size=target[i],
                partition_count=partitions[i],
                created_at=created[i],
                last_modified_at=modified[i],
                quota_utilization=quota[i],
                file_sizes=file_sizes,
                delete_file_count=deletes[i],
            )
        )
    return out


@dataclass(frozen=True)
class CatalogObservationSlice:
    """Frozen per-candidate observation inputs for a set of catalog keys.

    Row ``i`` holds everything needed to rebuild candidate ``i``'s
    statistics in another process, in the order the keys were captured.
    All fields are plain tuples of plain scalars, so the slice pickles
    cheaply and deterministically.

    Attributes:
        file_sizes: per-candidate live-file size lists (scope-filtered).
        target_file_sizes: per-candidate policy targets (LST policies are
            per *table*, so this cannot be a spec-level scalar).
        partition_counts: distinct partitions holding live files.
        delete_file_counts: merge-on-read delete files in force.
        created_ats: table creation times.
        last_modified_ats: last commit times (partition-granular for
            partition-scope candidates).
        quota_utilizations: owning database's UsedQuota/TotalQuota.
        versions: the keys' freshness tokens at capture time (the
            connector's feed epochs) — what the worker's cache delta
            stores, so cached entries turn stale exactly when the table
            changes again.
    """

    file_sizes: tuple[tuple[int, ...], ...]
    target_file_sizes: tuple[int, ...]
    partition_counts: tuple[int, ...]
    delete_file_counts: tuple[int, ...]
    created_ats: tuple[float, ...]
    last_modified_ats: tuple[float, ...]
    quota_utilizations: tuple[float, ...]
    versions: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.file_sizes)
        lengths = {
            "target_file_sizes": len(self.target_file_sizes),
            "partition_counts": len(self.partition_counts),
            "delete_file_counts": len(self.delete_file_counts),
            "created_ats": len(self.created_ats),
            "last_modified_ats": len(self.last_modified_ats),
            "quota_utilizations": len(self.quota_utilizations),
            "versions": len(self.versions),
        }
        bad = [name for name, length in lengths.items() if length != n]
        if bad:
            raise ValidationError(
                f"catalog observation slice columns must all have {n} rows "
                f"(mismatched: {bad})"
            )

    def __len__(self) -> int:
        return len(self.file_sizes)

    def statistics(self, i: int):
        """Rebuild row ``i``'s :class:`~repro.core.candidates.CandidateStatistics`."""
        return build_candidate_statistics(
            self.file_sizes[i],
            target_file_size=self.target_file_sizes[i],
            partition_count=self.partition_counts[i],
            delete_file_count=self.delete_file_counts[i],
            created_at=self.created_ats[i],
            last_modified_at=self.last_modified_ats[i],
            quota_utilization=self.quota_utilizations[i],
        )
