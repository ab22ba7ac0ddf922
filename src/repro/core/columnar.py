"""Columnar shard payloads over shared memory: the zero-copy transport.

The pickle transport ships a shard's observation inputs as one Python
object per candidate (``CatalogObservationSlice`` rows, hit ``Candidate``
objects), which makes process-mode cycles serialization-bound: the
coordinator spends the fork win re-encoding tuples.  This module flips the
representation to *structure-of-arrays*: every per-candidate statistic
becomes one flat numpy array, the arrays are packed into a single
:mod:`multiprocessing.shared_memory` segment, and only the segment name
plus a layout table cross the process boundary — workers map the segment
and read the coordinator's bytes in place.

Three layers:

* :class:`SharedArrayBlock` — named numpy arrays in one shared-memory
  segment (or inline in the pickle below :data:`SHM_MIN_BYTES`, where a
  segment's two syscalls cost more than the copy).  Creator-side views
  stay valid until :meth:`~SharedArrayBlock.dispose`, which is what lets
  the coordinator rebuild worker results from its *own* arrays instead of
  shipping them back.
* :class:`ColumnarMissBlock` — the observation payload: scalar statistic
  columns plus (for catalog connectors) the ragged per-file size array
  with its offsets.  Implements both the ``snapshot`` protocol of
  :class:`~repro.core.workers.ShardWorkSpec` and the
  :class:`~repro.core.traits.ColumnarBlock` protocol traits vectorise
  over.
* :class:`ColumnarHitPayload` / :class:`ColumnarResultPayload` — the
  decide-phase halves: coordinator-resolved cache hits shipped as scalar
  columns + a trait matrix, and the worker's answer shipped as a trait
  matrix + selected references — no ``Candidate`` object crosses in
  either direction.

Integer aggregates are computed with exact int64 cumulative sums and
surfaced as Python ints via ``tolist()``; float columns round-trip
float64 bit-for-bit.  Together with the trait layer's slice-reduction
guarantee (:meth:`~repro.core.traits.Trait.compute_columnar`) this keeps
cycle reports byte-identical to the pickle transport and to thread mode.

Lifecycle: the creating process owns each segment and must call
``dispose()`` (the transport does, per cycle, in a ``finally``); a
``weakref`` finalizer backstops leaks, guarded by the creator's PID so
forked pool workers inheriting the finalizer never unlink a segment the
coordinator still uses.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.core.candidates import Candidate, CandidateKey, CandidateStatistics
from repro.errors import ValidationError

#: Below this many payload bytes the arrays ride inline in the spec pickle:
#: still columnar (one memcpy, no per-object encoding), but without the
#: per-segment syscall + /dev/shm file overhead that dominates tiny shards.
SHM_MIN_BYTES = 16384

#: Scalar statistic columns every :class:`ColumnarMissBlock` carries —
#: the full :class:`~repro.core.candidates.CandidateStatistics` scalar
#: surface, int64 then float64.
STAT_INT_COLUMNS = (
    "file_count",
    "total_bytes",
    "small_file_count",
    "small_file_bytes",
    "target_file_size",
    "partition_count",
    "delete_file_count",
)
STAT_FLOAT_COLUMNS = ("created_at", "last_modified_at", "quota_utilization")


def _dispose_segment(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    """Finalizer target: close the mapping, unlink only in the creator.

    Forked pool workers inherit the coordinator's finalizers; the PID
    guard keeps a worker's interpreter shutdown from unlinking a segment
    the coordinator is still serving to other workers.
    """
    try:
        shm.close()
    except BufferError:
        pass  # a live view pins the mapping; the name is still freed below
    except OSError:
        pass
    if os.getpid() != creator_pid:
        return
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass


class SharedArrayBlock:
    """Named numpy arrays in one shared-memory segment (or inline).

    Create with :meth:`create` in the owning process; pickle ships only
    the segment name and the layout table (name, dtype, shape, offset per
    array), so a spec's payload bytes never pass through pickle.  Readers
    call :meth:`arrays` for zero-copy views — valid in the creator until
    :meth:`dispose` and in an attached process until :meth:`close`.
    """

    def __init__(self) -> None:  # instances come from create() / unpickling
        self._layout: tuple = ()
        self._shm: shared_memory.SharedMemory | None = None
        self._shm_name: str | None = None
        self._inline: dict[str, np.ndarray] | None = None
        self._views: dict[str, np.ndarray] | None = None
        self._owner = False
        self._creator_pid: int | None = None
        self._finalizer: weakref.finalize | None = None
        self._disposed = False

    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray], min_shm_bytes: int = SHM_MIN_BYTES
    ) -> "SharedArrayBlock":
        """Pack ``arrays`` (copied once) into a new block owned by this process."""
        block = cls()
        layout: list[tuple] = []
        prepared: dict[str, np.ndarray] = {}
        offset = 0
        for name, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            offset = (offset + 63) & ~63  # 64-byte alignment per array
            layout.append((name, contiguous.dtype.str, contiguous.shape, offset))
            offset += contiguous.nbytes
            prepared[name] = contiguous
        block._layout = tuple(layout)
        block._creator_pid = os.getpid()
        if offset < min_shm_bytes:
            block._inline = prepared
            return block
        shm = shared_memory.SharedMemory(create=True, size=offset)
        for name, dtype, shape, start in block._layout:
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
            view[...] = prepared[name]
        block._shm = shm
        block._shm_name = shm.name
        block._owner = True
        block._finalizer = weakref.finalize(block, _dispose_segment, shm, os.getpid())
        return block

    @property
    def backing(self) -> str:
        """``"shm"`` for a shared-memory segment, ``"inline"`` otherwise."""
        return "inline" if self._inline is not None else "shm"

    @property
    def nbytes(self) -> int:
        """Total payload bytes (zero-copy bytes when backed by shm)."""
        if not self._layout:
            return 0
        name, dtype, shape, start = self._layout[-1]
        return start + int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))

    def __getstate__(self) -> dict:
        # Ship the name + layout, never the bytes (inline blocks excepted).
        return {
            "layout": self._layout,
            "shm_name": self._shm_name,
            "inline": self._inline,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self._layout = state["layout"]
        self._shm_name = state["shm_name"]
        self._inline = state["inline"]

    def arrays(self) -> dict[str, np.ndarray]:
        """Name → array views; attaches to the segment on first call."""
        if self._views is None:
            if self._disposed:
                raise ValidationError("shared array block used after dispose()")
            if self._inline is not None:
                self._views = dict(self._inline)
            else:
                if self._shm is None:
                    # Attaching from a pool worker registers the segment
                    # again.  That is idempotent only because WorkerPool
                    # starts the coordinator's resource tracker before it
                    # forks, so the worker shares it and the coordinator's
                    # unlink clears the entry — a worker forked earlier
                    # would start its own tracker and report the segment
                    # as leaked at exit.
                    self._shm = shared_memory.SharedMemory(name=self._shm_name)
                buf = self._shm.buf
                self._views = {
                    name: np.ndarray(shape, dtype=dtype, buffer=buf, offset=start)
                    for name, dtype, shape, start in self._layout
                }
        return self._views

    def close(self) -> None:
        """Drop this process's mapping (reader-side); never unlinks."""
        self._views = None
        shm, self._shm = self._shm, None
        if shm is not None and not self._owner:
            try:
                shm.close()
            except (BufferError, OSError):
                pass
        elif shm is not None:
            self._shm = shm  # owners keep the mapping until dispose()

    def dispose(self) -> None:
        """Creator-side teardown: close the mapping and unlink the segment.

        Idempotent; after this the segment name is gone and no process can
        attach.  Inline blocks just drop their arrays.
        """
        if self._disposed:
            return
        self._disposed = True
        self._views = None
        self._inline = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        shm, self._shm = self._shm, None
        if shm is None:
            return
        if self._owner:
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
        try:
            shm.close()
        except (BufferError, OSError):
            pass


class ColumnarMissBlock:
    """A shard's cache-miss observations as flat arrays.

    Satisfies the ``snapshot`` protocol of
    :class:`~repro.core.workers.ShardWorkSpec` (``__len__`` +
    ``statistics(i)``) and the :class:`~repro.core.traits.ColumnarBlock`
    protocol, so the same payload feeds spec validation, vectorised trait
    evaluation, and (coordinator-side, from the retained arrays) candidate
    rebuild.
    """

    def __init__(self, block: SharedArrayBlock, n: int, has_sizes: bool) -> None:
        self._block = block
        self._n = n
        self._has_sizes = has_sizes
        self._sizes_f64: np.ndarray | None = None
        self._rep_targets: np.ndarray | None = None

    @classmethod
    def from_sizes(
        cls,
        size_lists: list,
        targets: list,
        partition_counts: list,
        delete_file_counts: list,
        created_at: list,
        last_modified_at: list,
        quota_utilization: list,
        min_shm_bytes: int = SHM_MIN_BYTES,
    ) -> "ColumnarMissBlock":
        """Build from per-candidate file-size lists (catalog connectors).

        Scalar aggregates come from exact int64 cumulative sums over the
        concatenated size array — value-identical to
        :meth:`CandidateStatistics.from_file_sizes` summing Python ints.
        """
        n = len(size_lists)
        counts = np.fromiter((len(s) for s in size_lists), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        # One C-level conversion per candidate, not one Python iteration
        # per file: asarray on a size tuple is ~4x cheaper than fromiter
        # over a flattening generator, and pack cost is the coordinator-
        # side half of the transport's per-file budget.
        if n:
            flat = np.concatenate(
                [np.asarray(sizes, dtype=np.int64).reshape(-1) for sizes in size_lists]
            )
        else:
            flat = np.zeros(0, dtype=np.int64)
        targets_arr = np.asarray(targets, dtype=np.int64)
        small_mask = flat < np.repeat(targets_arr, counts)
        sums = np.zeros((3, total + 1), dtype=np.int64)
        np.cumsum(flat, out=sums[0, 1:])
        np.cumsum(small_mask.astype(np.int64), out=sums[1, 1:])
        np.cumsum(np.where(small_mask, flat, 0), out=sums[2, 1:])
        lo, hi = offsets[:-1], offsets[1:]
        arrays = {
            "file_count": counts,
            "total_bytes": sums[0, hi] - sums[0, lo],
            "small_file_count": sums[1, hi] - sums[1, lo],
            "small_file_bytes": sums[2, hi] - sums[2, lo],
            "target_file_size": targets_arr,
            "partition_count": np.asarray(partition_counts, dtype=np.int64),
            "delete_file_count": np.asarray(delete_file_counts, dtype=np.int64),
            "created_at": np.asarray(created_at, dtype=np.float64),
            "last_modified_at": np.asarray(last_modified_at, dtype=np.float64),
            "quota_utilization": np.asarray(quota_utilization, dtype=np.float64),
            "sizes": flat,
            "size_offsets": offsets,
        }
        return cls(SharedArrayBlock.create(arrays, min_shm_bytes), n, has_sizes=True)

    @classmethod
    def from_columns(
        cls,
        columns: dict,
        n: int,
        min_shm_bytes: int = SHM_MIN_BYTES,
    ) -> "ColumnarMissBlock":
        """Build from precomputed scalar columns (no per-file detail).

        Missing int columns default to the
        :class:`~repro.core.candidates.CandidateStatistics` defaults
        (``partition_count`` 1, ``delete_file_count`` 0); statistics built
        from such a block carry empty ``file_sizes``, matching connectors
        whose observe path never materialises per-file sizes.
        """
        arrays: dict[str, np.ndarray] = {}
        for name in STAT_INT_COLUMNS:
            if name in columns:
                arrays[name] = np.asarray(columns[name], dtype=np.int64)
            elif name == "partition_count":
                arrays[name] = np.ones(n, dtype=np.int64)
            elif name == "delete_file_count":
                arrays[name] = np.zeros(n, dtype=np.int64)
            else:
                raise ValidationError(f"columnar block missing required column {name!r}")
        for name in STAT_FLOAT_COLUMNS:
            if name not in columns:
                raise ValidationError(f"columnar block missing required column {name!r}")
            arrays[name] = np.asarray(columns[name], dtype=np.float64)
        return cls(SharedArrayBlock.create(arrays, min_shm_bytes), n, has_sizes=False)

    # -- ColumnarBlock protocol (trait vectorisation) ---------------------

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        return self._block.arrays()[name]

    def flat_sizes(self):
        if not self._has_sizes:
            return None
        if self._sizes_f64 is None:
            arrays = self._block.arrays()
            self._sizes_f64 = arrays["sizes"].astype(np.float64)
        return self._sizes_f64, self._block.arrays()["size_offsets"]

    def repeated_targets(self):
        if not self._has_sizes:
            return None
        if self._rep_targets is None:
            arrays = self._block.arrays()
            counts = arrays["file_count"]
            self._rep_targets = np.repeat(
                arrays["target_file_size"].astype(np.float64), counts
            )
        return self._rep_targets

    # -- snapshot protocol + rebuild --------------------------------------

    @property
    def has_sizes(self) -> bool:
        return self._has_sizes

    @property
    def nbytes(self) -> int:
        return self._block.nbytes

    @property
    def backing(self) -> str:
        return self._block.backing

    def statistics(self, i: int) -> CandidateStatistics:
        """Row accessor for snapshot-protocol parity; hot paths batch."""
        arrays = self._block.arrays()
        sizes: tuple = ()
        if self._has_sizes:
            offsets = arrays["size_offsets"]
            sizes = tuple(arrays["sizes"][int(offsets[i]) : int(offsets[i + 1])].tolist())
        return CandidateStatistics.build_unchecked(
            file_count=int(arrays["file_count"][i]),
            total_bytes=int(arrays["total_bytes"][i]),
            small_file_count=int(arrays["small_file_count"][i]),
            small_file_bytes=int(arrays["small_file_bytes"][i]),
            target_file_size=int(arrays["target_file_size"][i]),
            partition_count=int(arrays["partition_count"][i]),
            created_at=float(arrays["created_at"][i]),
            last_modified_at=float(arrays["last_modified_at"][i]),
            quota_utilization=float(arrays["quota_utilization"][i]),
            file_sizes=sizes,
            delete_file_count=int(arrays["delete_file_count"][i]),
        )

    def statistics_batch(self, include_sizes: bool = True) -> list[CandidateStatistics]:
        """All rows as statistics objects, scalars exact via ``tolist()``.

        ``include_sizes=False`` skips materialising per-file size tuples —
        the worker-side decide path runs filters and rank over scalars and
        a precomputed trait matrix, so it never reads them; the
        coordinator-side rebuild keeps them for cache fidelity.
        """
        # Lazily imported: catalog modules import lazily from core, and
        # keeping this edge off the module graph preserves that ordering.
        from repro.catalog.snapshot import build_candidate_statistics_batch

        arrays = self._block.arrays()
        columns = {
            name: arrays[name].tolist()
            for name in STAT_INT_COLUMNS + STAT_FLOAT_COLUMNS
        }
        flat = None
        bounds = None
        if self._has_sizes and include_sizes:
            flat = arrays["sizes"].tolist()
            bounds = arrays["size_offsets"].tolist()
        return build_candidate_statistics_batch(columns, sizes=flat, size_offsets=bounds)

    def close(self) -> None:
        """Reader-side detach (worker processes call this after rebuild)."""
        self._sizes_f64 = None
        self._rep_targets = None
        self._block.close()

    def dispose(self) -> None:
        """Creator-side teardown; see :meth:`SharedArrayBlock.dispose`."""
        self._sizes_f64 = None
        self._rep_targets = None
        self._block.dispose()


@dataclass
class ColumnarHitPayload:
    """Coordinator-resolved cache hits, shipped columnar for worker decide.

    ``positions[j]`` is where hit ``j`` sits in the shard's generation-
    order candidate list (``total`` long, miss holes elsewhere).  The
    block carries one scalar statistic array per
    :data:`STAT_INT_COLUMNS` / :data:`STAT_FLOAT_COLUMNS` plus the
    ``trait_matrix`` — per-file sizes and custom metrics never ship, which
    is why :meth:`try_pack` declines candidates carrying custom statistics
    (those fall back to object hits).
    """

    keys: tuple[CandidateKey, ...]
    positions: tuple[int, ...]
    total: int
    trait_names: tuple[str, ...]
    block: SharedArrayBlock

    @classmethod
    def try_pack(
        cls,
        placed: list,
        trait_names: tuple[str, ...],
        min_shm_bytes: int = SHM_MIN_BYTES,
    ) -> "ColumnarHitPayload | None":
        """Pack the non-``None`` entries of ``placed``; ``None`` to decline.

        Declines when any hit lacks statistics, misses a registered trait
        (the worker would need per-file detail to recompute it), or
        carries custom statistics (not representable as fixed columns).
        """
        entries = [(i, c) for i, c in enumerate(placed) if c is not None]
        for _, candidate in entries:
            stats = candidate.statistics
            if stats is None or stats.custom:
                return None
            traits = candidate.traits
            if any(name not in traits for name in trait_names):
                return None
        h = len(entries)
        arrays: dict[str, np.ndarray] = {}
        stats_list = [c.statistics for _, c in entries]
        for name in STAT_INT_COLUMNS:
            arrays[name] = np.fromiter(
                (getattr(s, name) for s in stats_list), dtype=np.int64, count=h
            )
        for name in STAT_FLOAT_COLUMNS:
            arrays[name] = np.fromiter(
                (getattr(s, name) for s in stats_list), dtype=np.float64, count=h
            )
        matrix = np.empty((h, len(trait_names)), dtype=np.float64)
        for j, (_, candidate) in enumerate(entries):
            traits = candidate.traits
            for k, name in enumerate(trait_names):
                matrix[j, k] = traits[name]
        arrays["trait_matrix"] = matrix
        return cls(
            keys=tuple(c.key for _, c in entries),
            positions=tuple(i for i, _ in entries),
            total=len(placed),
            trait_names=trait_names,
            block=SharedArrayBlock.create(arrays, min_shm_bytes),
        )

    def build(self) -> list:
        """Worker-side rebuild: the generation-order list with miss holes."""
        arrays = self.block.arrays()
        columns = {
            name: arrays[name].tolist()
            for name in STAT_INT_COLUMNS + STAT_FLOAT_COLUMNS
        }
        rows = arrays["trait_matrix"].tolist()
        build = CandidateStatistics.build_unchecked
        placed: list = [None] * self.total
        names = self.trait_names
        for j, (key, position) in enumerate(zip(self.keys, self.positions)):
            stats = build(
                file_count=columns["file_count"][j],
                total_bytes=columns["total_bytes"][j],
                small_file_count=columns["small_file_count"][j],
                small_file_bytes=columns["small_file_bytes"][j],
                target_file_size=columns["target_file_size"][j],
                partition_count=columns["partition_count"][j],
                created_at=columns["created_at"][j],
                last_modified_at=columns["last_modified_at"][j],
                quota_utilization=columns["quota_utilization"][j],
                delete_file_count=columns["delete_file_count"][j],
            )
            placed[position] = Candidate(
                key=key, statistics=stats, traits=dict(zip(names, rows[j]))
            )
        return placed

    def close(self) -> None:
        self.block.close()

    def dispose(self) -> None:
        self.block.dispose()


def matrix_from_candidates(candidates: list, trait_names: tuple) -> np.ndarray:
    """Harvest annotated candidates' traits into a float64 matrix.

    The per-object fallback of the columnar worker: values are already
    Python floats, so the round trip through float64 is exact.
    """
    matrix = np.empty((len(candidates), len(trait_names)), dtype=np.float64)
    for i, candidate in enumerate(candidates):
        traits = candidate.traits
        for k, name in enumerate(trait_names):
            matrix[i, k] = traits[name]
    return matrix


@dataclass
class ColumnarResultPayload:
    """The columnar worker's answer: trait values + selection references.

    ``matrix`` holds one row per spec miss key (generation order) and one
    column per ``trait_names`` entry; the coordinator zips it with its
    retained observation arrays to rebuild every miss candidate without a
    single object crossing back.  With worker decide, ``selected`` lists
    ``("hit", position)`` / ``("miss", index)`` references in rank order
    and ``scores`` their ranked scores.
    """

    trait_names: tuple[str, ...]
    matrix: object  # (n_miss, len(trait_names)) float64 ndarray
    selected: tuple | None = None
    scores: tuple = field(default_factory=tuple)
