"""Compaction candidates: the unit of work AutoComp reasons about.

A *candidate* is a collection of files eligible for compaction (§4.1).  Its
scope can be a whole table, a single partition, or a snapshot's recent
files; fine-grained scopes (FR1) let AutoComp parallelise work across
segments of large tables, schedule smaller units under tight budgets, and
contain the blast radius of conflicts.

The candidate flows through the OODA phases accumulating state:
``CandidateKey`` (generation) → ``statistics`` (observe) → ``traits``
(orient) → ``score`` (decide).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import ValidationError


class CandidateScope(enum.Enum):
    """Granularity of a compaction work unit."""

    TABLE = "table"
    PARTITION = "partition"
    SNAPSHOT = "snapshot"


#: Shared frozen mapping for statistics without custom metrics.
_EMPTY_CUSTOM: Mapping[str, float] = MappingProxyType({})

#: Candidate-generation strategies (the paper's §6 experiment matrix):
#: ``table`` generates one candidate per table; ``partition`` one per
#: partition; ``hybrid`` uses partitions for partitioned tables and falls
#: back to table scope otherwise.
GENERATION_STRATEGIES = ("table", "partition", "hybrid")


@dataclass(frozen=True)
class CandidateKey:
    """Identity of a candidate: which files of which table.

    Keys are value objects used as dict/set members on every hot path of
    the control plane (stats caches, shard assignment, report merging), so
    the hash, the qualified name and the string form are each computed once
    and memoised — a fleet-scale cycle hashes tens of thousands of keys.
    """

    database: str
    table: str
    scope: CandidateScope
    partition: tuple | None = None
    snapshot_id: int | None = None

    def __post_init__(self) -> None:
        if self.scope is CandidateScope.PARTITION and self.partition is None:
            raise ValidationError("partition-scope candidates need a partition tuple")
        if self.scope is CandidateScope.SNAPSHOT and self.snapshot_id is None:
            raise ValidationError("snapshot-scope candidates need a snapshot id")
        qualified = f"{self.database}.{self.table}"
        object.__setattr__(self, "_qualified", qualified)
        if self.scope is CandidateScope.PARTITION:
            rendered = f"{qualified}[partition={self.partition}]"
        elif self.scope is CandidateScope.SNAPSHOT:
            rendered = f"{qualified}[snapshot={self.snapshot_id}]"
        else:
            rendered = qualified
        object.__setattr__(self, "_str", rendered)
        object.__setattr__(
            self,
            "_hash",
            hash((self.database, self.table, self.scope, self.partition, self.snapshot_id)),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Pickle only the five identity fields and rebuild through
        # __init__: the memoised strings/hash roughly double the wire size
        # of a key, and shard specs/results ship thousands of them per
        # cycle.  The memos are recomputed by __post_init__ on load.
        return (
            CandidateKey,
            (self.database, self.table, self.scope, self.partition, self.snapshot_id),
        )

    @property
    def qualified_table(self) -> str:
        """``database.table``."""
        return self._qualified  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return self._str  # type: ignore[attr-defined]


@dataclass(frozen=True)
class CandidateStatistics:
    """Observe-phase output: the standardized statistics layout (§4.1).

    Generic statistics every connector must supply, plus a ``custom``
    mapping for platform-specific metrics (access patterns, usage) that not
    all systems can provide.

    Attributes:
        file_count: live data files in the candidate.
        total_bytes: their total size.
        small_file_count: files below ``target_file_size`` — the paper's
            ΔF_c estimator reads this directly.
        small_file_bytes: bytes in those small files (what a rewrite touches).
        target_file_size: the candidate's compaction target.
        file_sizes: individual file sizes (for entropy-style traits).
        partition_count: distinct partitions holding live files.
        delete_file_count: merge-on-read delete files in force.
        created_at: table creation time (drives recent-table filters).
        last_modified_at: last commit time (drives write-activity filters).
        quota_utilization: owning database's UsedQuota/TotalQuota (§7).
        custom: extension point for platform-specific metrics.
    """

    file_count: int
    total_bytes: int
    small_file_count: int
    small_file_bytes: int
    target_file_size: int
    file_sizes: tuple[int, ...] = ()
    partition_count: int = 1
    delete_file_count: int = 0
    created_at: float = 0.0
    last_modified_at: float = 0.0
    quota_utilization: float = 0.0
    custom: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.file_count < 0 or self.total_bytes < 0:
            raise ValidationError("file_count and total_bytes must be >= 0")
        if not 0 <= self.small_file_count <= max(self.file_count, 0):
            raise ValidationError(
                f"small_file_count {self.small_file_count} out of range "
                f"[0, {self.file_count}]"
            )
        if self.target_file_size <= 0:
            raise ValidationError("target_file_size must be positive")
        # Freeze the custom mapping so statistics stay value-like; the
        # common no-custom-metrics case shares one immutable empty mapping
        # (statistics are built per candidate per cycle at fleet scale).
        if self.custom:
            object.__setattr__(self, "custom", MappingProxyType(dict(self.custom)))
        else:
            object.__setattr__(self, "custom", _EMPTY_CUSTOM)

    @property
    def small_file_fraction(self) -> float:
        """Share of files below target (0 for empty candidates)."""
        if self.file_count == 0:
            return 0.0
        return self.small_file_count / self.file_count

    # Statistics cross the shard-worker process boundary
    # (:mod:`repro.core.workers`), but the frozen ``custom`` mapping is a
    # ``MappingProxyType``, which pickle rejects; serialize it as a plain
    # dict and re-freeze on the way back in.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["custom"] = dict(state["custom"])
        return state

    def __setstate__(self, state: dict) -> None:
        custom = state["custom"]
        state["custom"] = MappingProxyType(custom) if custom else _EMPTY_CUSTOM
        # Frozen dataclass: restore through __dict__, not __setattr__.
        self.__dict__.update(state)

    @classmethod
    def build_unchecked(
        cls,
        file_count: int,
        total_bytes: int,
        small_file_count: int,
        small_file_bytes: int,
        target_file_size: int,
        partition_count: int,
        created_at: float,
        last_modified_at: float,
        quota_utilization: float,
        *,
        file_sizes: tuple[int, ...] = (),
        delete_file_count: int = 0,
    ) -> "CandidateStatistics":
        """Trusted fast-path constructor for vectorised connectors.

        Skips ``__init__``/``__post_init__`` (field validation and custom-
        mapping freezing) for callers whose inputs come from already-
        validated arrays — building statistics is the per-candidate floor
        of a fleet-scale observe cycle, and the frozen-dataclass
        constructor costs ~3x this path.  The result is indistinguishable
        from a normally constructed instance with empty ``custom``; the
        keyword-only ``file_sizes`` / ``delete_file_count`` let columnar
        transports rebuild full-fidelity statistics without re-validation.
        """
        stats = object.__new__(cls)
        object.__setattr__(
            stats,
            "__dict__",
            {
                "file_count": file_count,
                "total_bytes": total_bytes,
                "small_file_count": small_file_count,
                "small_file_bytes": small_file_bytes,
                "target_file_size": target_file_size,
                "file_sizes": file_sizes,
                "partition_count": partition_count,
                "delete_file_count": delete_file_count,
                "created_at": created_at,
                "last_modified_at": last_modified_at,
                "quota_utilization": quota_utilization,
                "custom": _EMPTY_CUSTOM,
            },
        )
        return stats

    @classmethod
    def from_file_sizes(
        cls,
        file_sizes: list[int],
        target_file_size: int,
        **kwargs: object,
    ) -> "CandidateStatistics":
        """Build statistics from raw file sizes (the common connector path)."""
        small = [s for s in file_sizes if s < target_file_size]
        return cls(
            file_count=len(file_sizes),
            total_bytes=sum(file_sizes),
            small_file_count=len(small),
            small_file_bytes=sum(small),
            target_file_size=target_file_size,
            file_sizes=tuple(file_sizes),
            **kwargs,  # type: ignore[arg-type]
        )


@dataclass
class Candidate:
    """A candidate moving through the OODA pipeline."""

    key: CandidateKey
    statistics: CandidateStatistics | None = None
    traits: dict[str, float] = field(default_factory=dict)
    score: float | None = None
    #: Stamp of the :class:`~repro.core.traits.TraitRegistry` that computed
    #: ``traits`` from the current ``statistics`` (0 = none).  Lets a
    #: candidate reused across cycles skip orientation only under the
    #: registry that oriented it.
    oriented_by: int = field(default=0, compare=False, repr=False)

    def trait(self, name: str) -> float:
        """The value of trait ``name``.

        Raises:
            ValidationError: if the trait has not been computed.
        """
        try:
            return self.traits[name]
        except KeyError:
            raise ValidationError(
                f"trait {name!r} not computed for {self.key} "
                f"(have: {sorted(self.traits)})"
            ) from None

    def __str__(self) -> str:
        return str(self.key)
