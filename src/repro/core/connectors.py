"""Connectors: AutoComp's view onto a catalog / LST platform.

Cross-platform compatibility (NFR3) comes from this seam: the OODA pipeline
only ever talks to a :class:`Connector`, which produces candidate keys and
the standardized :class:`~repro.core.candidates.CandidateStatistics`.
Two implementations ship with the library:

* :class:`LstConnector` (here) — backed by a live
  :class:`~repro.catalog.catalog.Catalog` of simulated Iceberg/Delta tables
  (used by the §6 synthetic experiments); and
* :class:`~repro.fleet.connectors.FleetConnector` — backed by the
  vectorised fleet state (used by the §7 production-scale experiments).
"""

from __future__ import annotations

import abc
import threading

from repro.catalog.catalog import Catalog
from repro.catalog.snapshot import CatalogObservationSlice, build_candidate_statistics
from repro.core.candidates import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    GENERATION_STRATEGIES,
)
from repro.core.statscache import IndexedCandidateCache, StatsCache
from repro.errors import ValidationError
from repro.lst.base import BaseTable


class Connector(abc.ABC):
    """Platform adapter feeding candidates and statistics to the pipeline.

    Connectors may carry a :class:`~repro.core.statscache.StatsCache` in
    ``stats_cache``; when present, the observe phase becomes incremental
    (O(dirty tables) instead of O(all tables)) and write events reaching
    :meth:`invalidate` — typically from the
    :class:`~repro.core.service.AutoCompService` notification inbox — evict
    the affected entries.
    """

    #: Optional incremental-observation cache (set by subclasses).
    stats_cache = None

    #: True when :meth:`observe` may return the *same annotated Candidate
    #: objects* across cycles for unchanged tables (candidate-reusing
    #: caches).  The pipeline then skips trait recomputation for
    #: candidates that already carry every registered trait.
    reuses_candidates = False

    @abc.abstractmethod
    def list_candidates(self, strategy: str = "table") -> list[CandidateKey]:
        """Generate candidate keys under a generation strategy.

        Args:
            strategy: one of ``table``, ``partition``, ``hybrid``.
        """

    @abc.abstractmethod
    def collect_statistics(self, key: CandidateKey) -> CandidateStatistics:
        """Observe phase: gather the standardized statistics for a key."""

    def observe(self, keys: list[CandidateKey]) -> list[Candidate]:
        """Materialise candidates with statistics for a list of keys."""
        return [Candidate(key=key, statistics=self.collect_statistics(key)) for key in keys]

    def list_candidates_sharded(
        self, strategy: str, n_shards: int, shard_index: int
    ) -> list[CandidateKey]:
        """Shard ``shard_index``'s slice of the candidate listing.

        The default filters the full listing through the consistent hash;
        vectorised connectors override it to produce the slice directly.
        Used by the sharded control plane when merge order permits
        (per-shard listings concatenate instead of interleave).
        """
        from repro.core.sharding import shard_for_key

        return [
            key
            for key in self.list_candidates(strategy)
            if shard_for_key(key, n_shards) == shard_index
        ]

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict ``key``'s table from the stats cache."""
        if self.stats_cache is not None:
            self.stats_cache.invalidate(key)

    def cache_counters(self) -> dict | None:
        """The stats cache's lookup counters, for hit-ratio telemetry.

        Returns ``{"id", "hits", "misses", "expirations"}`` (``id`` is the
        cache object's identity, letting the sharded plane deduplicate
        shards that share one cache), or None when the connector carries
        no cache.  Prefers the cache's ``counters_snapshot()`` (one locked
        read of all counters) so a concurrent lookup cannot tear the
        sample; falls back to attribute reads for caches without it, so
        new connectors get hit-ratio metrics for free.
        """
        cache = self.stats_cache
        if cache is None:
            return None
        snapshot = getattr(cache, "counters_snapshot", None)
        if callable(snapshot):
            counters = snapshot()
            return {
                "id": id(cache),
                "hits": float(counters.get("hits", 0)),
                "misses": float(counters.get("misses", 0)),
                "expirations": float(counters.get("expirations", 0)),
            }
        return {
            "id": id(cache),
            "hits": float(getattr(cache, "hits", 0)),
            "misses": float(getattr(cache, "misses", 0)),
            "expirations": float(getattr(cache, "expirations", 0)),
        }

    # --- process-mode shard-worker contract ---------------------------------
    #
    # The scale-out control plane's process workers cannot touch this
    # connector's live state; instead the coordinator drives a
    # :class:`~repro.core.transport.WorkerTransport` obtained from
    # :meth:`worker_transport`, which (a) resolves cache hits locally and
    # snapshots the miss inputs into a picklable spec, then (b) merges the
    # worker's result — candidates or a trait matrix, plus a cache delta —
    # back in through :meth:`store_worker_observations`.  A connector opts
    # in by advertising kinds in :meth:`worker_transport_kinds` and
    # providing each kind's format-specific encoder: ``export_shard_work``
    # for ``pickle``, ``export_columnar`` for ``columnar``.

    def worker_transport_kinds(self) -> tuple[str, ...]:
        """Transport kinds this connector speaks, in preference order.

        Empty (the default) means no process-worker support: the sharded
        plane keeps such connectors on the thread pool.
        """
        return ()

    def worker_transport(self, kind: str | None = None):
        """Build the :class:`~repro.core.transport.WorkerTransport` to use.

        Args:
            kind: requested transport kind, or None for the connector's
                preferred (first advertised) one.

        Returns:
            A transport instance, or None when this connector cannot feed
            process workers at all.

        Raises:
            ValidationError: when ``kind`` is requested but not spoken.
        """
        kinds = self.worker_transport_kinds()
        if not kinds:
            return None
        if kind is None:
            kind = kinds[0]
        elif kind not in kinds:
            raise ValidationError(
                f"{type(self).__name__} does not speak the {kind!r} worker "
                f"transport (supported: {kinds})"
            )
        from repro.core.transport import TRANSPORT_CLASSES

        return TRANSPORT_CLASSES[kind](self)

    def store_worker_observations(self, delta, candidates: list[Candidate]) -> None:
        """Absorb worker observations into the cache.

        Every transport's delta path: ``candidates`` are position-aligned
        with ``delta`` (shipped back by a pickle worker, or rebuilt
        coordinator-side by the columnar transport) and already oriented.
        Candidate-reusing caches store the candidates themselves,
        statistics caches their statistics.  Applying the delta keeps
        process-mode cycles incremental: the worker's freshness tokens land
        in the coordinator's cache, so the next cycle's hit pass sees the
        observation as if it had happened here.
        """
        cache = self.stats_cache
        if cache is None:
            return
        if self.reuses_candidates:
            cache.apply_delta(delta, candidates)
        else:
            cache.apply_delta(delta, [c.statistics for c in candidates])


class LstConnector(Connector):
    """Catalog-of-live-tables connector.

    Args:
        catalog: the control plane whose tables are compaction targets.
        include_databases: restrict candidate generation to these databases
            (None = all).
        stats_cache: optional incremental-observation cache.  A
            :class:`~repro.core.statscache.StatsCache` caches frozen
            statistics keyed by candidate, trusted until a write event
            (service notification) invalidates them or their TTL lapses.
            An :class:`~repro.core.statscache.IndexedCandidateCache`
            enables the *dense* path the fleet connector uses: candidate
            keys are interned to dense integer indices, the table's
            metadata ``version`` (bumped by every commit) serves as the
            freshness token — so entries self-heal with no event plumbing —
            and whole annotated candidates are reused across cycles,
            skipping the statistics build *and* the trait recompute for
            clean tables.  As with the fleet connector, custom traits that
            read ``quota_utilization`` should not be combined with a
            candidate-reusing cache (quota is re-stamped on hits, but
            traits are not recomputed).

    The bulk :meth:`observe` path passes each table's metadata ``version``
    as the freshness token for *both* cache kinds, so cached entries
    self-heal when a table commits even if no write event arrives — and,
    because :meth:`export_shard_work` applies the identical hit rule, a
    key is shipped to a process worker if and only if the in-process path
    would have re-observed it (the worker modes' byte-identical cycle
    reports depend on exactly that).  The single-key
    :meth:`collect_statistics` API keeps the event/TTL-only trust model.
    """

    def worker_transport_kinds(self) -> tuple[str, ...]:
        # Observation snapshots to frozen, picklable slices (pickle) or
        # shared-memory arrays (columnar), so this connector can feed
        # process-mode shard workers.  Workers rebuild statistics from
        # those rows, so a subclass customising build_statistics observes
        # in process (threads) instead.
        if type(self).build_statistics is not LstConnector.build_statistics:
            return ()
        return ("columnar", "pickle")

    def __init__(
        self,
        catalog: Catalog,
        include_databases: list[str] | None = None,
        stats_cache: StatsCache | IndexedCandidateCache | None = None,
    ) -> None:
        self.catalog = catalog
        self.include_databases = (
            set(include_databases) if include_databases is not None else None
        )
        self.stats_cache = stats_cache
        #: Dense index interning (dense path): candidate key → slot index.
        self._index_of: dict[CandidateKey, int] = {}
        #: Reverse mapping for table-granular write-event invalidation.
        self._indices_by_table: dict[str, list[int]] = {}
        # Sharded pipelines observe disjoint key slices of one shared
        # connector on a thread pool; interning a *new* key reads then
        # grows two dicts, which must not interleave across threads (two
        # keys racing len() would share a slot).
        self._intern_lock = threading.Lock()

    @property
    def _dense(self) -> bool:
        """Whether the dense candidate-reusing cache path is active.

        Derived from the live ``stats_cache`` attribute (not frozen at
        construction), so assigning a cache after construction — as the
        service wiring does — selects the right observation path.
        """
        return isinstance(self.stats_cache, IndexedCandidateCache)

    @property
    def reuses_candidates(self) -> bool:  # type: ignore[override]
        return self._dense

    def _dense_index(self, key: CandidateKey) -> int:
        # Double-checked locking: dict reads are atomic under the GIL and
        # an interned index is immutable once assigned, so the unlocked
        # first probe can only miss (never misread) — the locked re-check
        # closes the insert race.
        index = self._index_of.get(key)  # repro-lint: disable=RL001 -- double-checked locking; entries are write-once and re-checked under the lock
        if index is None:
            with self._intern_lock:
                index = self._index_of.get(key)
                if index is None:
                    index = self._index_of[key] = len(self._index_of)
                    self._indices_by_table.setdefault(key.qualified_table, []).append(
                        index
                    )
        return index

    def _restamp_quota(self, key: CandidateKey, statistics: CandidateStatistics) -> None:
        # Quota drifts through *other* tables' writes while this table's
        # version holds still; re-stamp it so cached observations stay
        # exactly equal to fresh ones.
        quota = self._quota(key)
        if statistics.quota_utilization != quota:
            object.__setattr__(statistics, "quota_utilization", quota)

    def _split_hits(
        self, keys: list[CandidateKey], now: float
    ) -> tuple[list[Candidate | None], list[CandidateKey], list, list, list[int]]:
        """The single source of the bulk-observation hit-validity rule.

        A key hits iff its cache entry was stored under the table's
        current metadata ``version`` (and is younger than the TTL); hits
        get their database-level quota re-stamped in place.  Shared by
        :meth:`observe` and :meth:`export_shard_work`, so the in-process
        and worker paths can never disagree about which keys need
        rebuilding.

        Returns:
            ``(placed, miss_keys, miss_slots, miss_tokens,
            miss_positions)`` — ``placed`` holds the hit candidates with
            ``None`` holes; the miss lists describe the holes in order
            (keys, cache slots, freshness tokens, hole positions).
        """
        cache = self.stats_cache
        dense = self._dense
        placed: list[Candidate | None] = [None] * len(keys)
        miss_keys: list[CandidateKey] = []
        miss_slots: list = []
        miss_tokens: list = []
        miss_positions: list[int] = []
        for pos, key in enumerate(keys):
            # The version read is the cheap per-table change counter: one
            # catalog lookup instead of a full file listing + statistics
            # build for clean tables.
            token = self.table_for(key).version
            if dense:
                slot: object = self._dense_index(key)
                candidate = cache.get(slot, now, token)  # type: ignore[union-attr, arg-type]
                if candidate is not None:
                    self._restamp_quota(key, candidate.statistics)
                    placed[pos] = candidate
                    continue
            elif cache is not None:
                slot = key
                statistics = cache.get(key, now, token)  # type: ignore[union-attr]
                if statistics is not None:
                    self._restamp_quota(key, statistics)
                    placed[pos] = Candidate(key=key, statistics=statistics)
                    continue
            else:
                slot = key
            miss_keys.append(key)
            miss_slots.append(slot)
            miss_tokens.append(token)
            miss_positions.append(pos)
        return placed, miss_keys, miss_slots, miss_tokens, miss_positions

    def observe(self, keys: list[CandidateKey]) -> list[Candidate]:
        now = self.catalog.clock.now
        placed, miss_keys, miss_slots, miss_tokens, miss_positions = self._split_hits(
            keys, now
        )
        if not miss_keys:
            return placed  # type: ignore[return-value] — no holes
        cache = self.stats_cache
        dense = self._dense
        for key, slot, token, pos in zip(
            miss_keys, miss_slots, miss_tokens, miss_positions
        ):
            statistics = self.build_statistics(key)
            candidate = Candidate(key=key, statistics=statistics)
            if dense:
                cache.put(slot, candidate, now, token)  # type: ignore[union-attr, arg-type]
            elif cache is not None:
                cache.put(key, statistics, now, token)  # type: ignore[union-attr]
            placed[pos] = candidate
        return placed  # type: ignore[return-value] — all holes filled

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict ``key``'s table from either cache kind."""
        if self.stats_cache is None:
            return
        if self._dense:
            # Snapshot the index list under the intern lock so a
            # concurrent _dense_index() append cannot race the iteration.
            with self._intern_lock:
                indices = list(self._indices_by_table.get(key.qualified_table, ()))
            for index in indices:
                self.stats_cache.invalidate_index(index)
        else:
            self.stats_cache.invalidate(key)

    def _tables(self) -> list[BaseTable]:
        tables = []
        for identifier in self.catalog.list_tables():
            if (
                self.include_databases is not None
                and identifier.database not in self.include_databases
            ):
                continue
            tables.append(self.catalog.load_table(identifier))
        return tables

    def list_candidates(self, strategy: str = "table") -> list[CandidateKey]:
        if strategy not in GENERATION_STRATEGIES:
            raise ValidationError(
                f"unknown generation strategy {strategy!r}; "
                f"expected one of {GENERATION_STRATEGIES}"
            )
        keys: list[CandidateKey] = []
        for table in self._tables():
            ident = table.identifier
            use_partitions = strategy == "partition" or (
                strategy == "hybrid" and table.spec.is_partitioned
            )
            if use_partitions and table.spec.is_partitioned:
                for partition in table.partitions():
                    keys.append(
                        CandidateKey(
                            database=ident.database,
                            table=ident.name,
                            scope=CandidateScope.PARTITION,
                            partition=partition,
                        )
                    )
            else:
                keys.append(
                    CandidateKey(
                        database=ident.database,
                        table=ident.name,
                        scope=CandidateScope.TABLE,
                    )
                )
        return keys

    def table_for(self, key: CandidateKey) -> BaseTable:
        """The live table object behind a candidate key."""
        return self.catalog.load_table(key.qualified_table)

    def snapshot_candidate(self, table: BaseTable, since_snapshot_id: int) -> CandidateKey:
        """A snapshot-scope candidate: files added after a base snapshot.

        §4.1: snapshot scope is beneficial when (reasonably) fresh data
        needs more frequent access — only the recently written files are
        considered for compaction, keeping performance objectives for the
        fresh subset without rewriting history.
        """
        ident = table.identifier
        table.snapshot(since_snapshot_id)  # validates existence
        return CandidateKey(
            database=ident.database,
            table=ident.name,
            scope=CandidateScope.SNAPSHOT,
            snapshot_id=since_snapshot_id,
        )

    def files_for(self, key: CandidateKey):
        """Live data files in a candidate's scope."""
        table = self.table_for(key)
        if key.scope is CandidateScope.PARTITION:
            return [f for f in table.live_files() if f.partition == key.partition]
        if key.scope is CandidateScope.SNAPSHOT:
            base = table.snapshot(key.snapshot_id)
            base_ids = {f.file_id for f in base.live_files}
            return [f for f in table.live_files() if f.file_id not in base_ids]
        return table.live_files()

    def collect_statistics(self, key: CandidateKey) -> CandidateStatistics:
        cache = self.stats_cache
        if self._dense:
            # The dense cache stores whole candidates per index (see
            # observe); single-key statistic reads bypass it.
            cache = None
        if cache is not None:
            now = self.catalog.clock.now
            cached = cache.get(key, now)
            if cached is not None:
                # Quota is database-level, so it drifts through *other*
                # tables' writes while this entry stays valid; re-stamp it
                # in place so cached observations stay exactly equal to
                # fresh ones (the invalidation sources are table-granular).
                quota = self._quota(key)
                if cached.quota_utilization != quota:
                    object.__setattr__(cached, "quota_utilization", quota)
                return cached
        statistics = self.build_statistics(key)
        if cache is not None:
            cache.put(key, statistics, now)
        return statistics

    def _quota(self, key: CandidateKey) -> float:
        try:
            return self.catalog.quota_utilization(key.database)
        except ValidationError:
            return 0.0

    def _observation_row(self, key: CandidateKey) -> tuple:
        """The raw per-candidate observation inputs, in snapshot column order.

        ``(file_sizes, target_file_size, partition_count,
        delete_file_count, created_at, last_modified_at,
        quota_utilization, size_counts, version)`` — the arguments of
        :func:`~repro.catalog.snapshot.build_candidate_statistics`, plus
        the table's metadata version as the freshness token.  Both the
        live statistics build and the worker-bound exports come from this
        method, so the observation paths cannot drift.

        Each key resolves its table once.  Table- and partition-scope rows
        read the table's current
        :class:`~repro.lst.snapshot.SizeSummary` — built once per snapshot
        — so a row costs O(1) for a table that did not commit since its
        last observation, and ``size_counts`` carries the summary's
        memoised ``(file_count, total_bytes, small_file_count,
        small_file_bytes)`` for the policy target.  Snapshot-scope rows
        list their files through :meth:`files_for` (which stays the
        per-file test oracle) and leave ``size_counts`` None.
        """
        table = self.table_for(key)
        target = self.catalog.policy(key.qualified_table).target_file_size
        last_modified = table.last_modified_at
        if key.scope is CandidateScope.SNAPSHOT:
            files = self.files_for(key)
            sizes = tuple(f.size_bytes for f in files)
            partition_count = max(len({f.partition for f in files}), 1)
            counts = None
        else:
            summary = table.size_summary()
            partition = key.partition if key.scope is CandidateScope.PARTITION else None
            sizes = summary.sizes_in(partition)
            counts = summary.counts(target, partition)
            if partition is None:
                partition_count = max(summary.partition_count, 1)
            else:
                partition_count = 1
                # Partition-scope candidates carry partition-level write
                # recency: write-activity filters can then skip hot
                # partitions while still compacting the table's cold ones.
                last_modified = table.partition_last_modified(partition)
        return (
            sizes,
            target,
            partition_count,
            table.delete_file_count,
            table.created_at,
            last_modified,
            self._quota(key),
            counts,
            table.version,
        )

    def build_statistics(self, key: CandidateKey) -> CandidateStatistics:
        """Build ``key``'s statistics from the live catalog, uncached.

        The one source of every cache miss — bulk :meth:`observe` and
        single-key :meth:`collect_statistics` alike — so subclasses add
        platform-specific signals (``CandidateStatistics.custom``) here.
        """
        row = self._observation_row(key)
        return build_candidate_statistics(*row[:-1])

    # --- process-mode shard workers ---------------------------------------------

    def export_shard_work(
        self, keys: list[CandidateKey], shard_index: int, traits
    ) -> tuple[list[Candidate | None], "object | None"]:
        """Resolve cache hits locally; snapshot the misses into a picklable spec.

        The hit pass *is* :meth:`_split_hits` — the same code the
        in-process :meth:`observe` path runs — and the miss rows are
        captured into a frozen
        :class:`~repro.catalog.snapshot.CatalogObservationSlice` carrying
        per-key file sizes, policy targets and ``table.version`` freshness
        tokens.  Only the dirty slice crosses the process boundary, never
        the live catalog.
        """
        from repro.core.workers import ShardWorkSpec

        now = self.catalog.clock.now
        placed, miss_keys, miss_slots, miss_tokens, _ = self._split_hits(keys, now)
        if not miss_keys:
            return placed, None
        rows = [self._observation_row(key) for key in miss_keys]
        snapshot = CatalogObservationSlice(
            file_sizes=tuple(row[0] for row in rows),
            target_file_sizes=tuple(row[1] for row in rows),
            partition_counts=tuple(row[2] for row in rows),
            delete_file_counts=tuple(row[3] for row in rows),
            created_ats=tuple(row[4] for row in rows),
            last_modified_ats=tuple(row[5] for row in rows),
            quota_utilizations=tuple(row[6] for row in rows),
            versions=tuple(row[8] for row in rows),
        )
        spec = ShardWorkSpec(
            shard_index=shard_index,
            keys=tuple(miss_keys),
            columns={},
            slots=tuple(miss_slots),
            tokens=tuple(miss_tokens),
            target_file_size=1,  # unused: the snapshot carries per-key targets
            now=now,
            traits=traits,
            snapshot=snapshot,
        )
        return placed, spec

    def export_columnar(
        self, keys: list[CandidateKey], shard_index: int, traits
    ) -> tuple[list[Candidate | None], "object | None"]:
        """Columnar export: the same hit rule, misses packed as flat arrays.

        The hit pass *is* :meth:`_split_hits` and the miss rows come from
        :meth:`_observation_row` — identical inputs to every other
        observation path — but instead of per-key tuples the file sizes
        land in one concatenated int64 array (with offsets) inside a
        shared-memory block, scalar aggregates precomputed by exact
        integer cumulative sums.  The coordinator retains zero-copy views
        of the same block to rebuild the worker's candidates on merge.
        """
        from repro.core.columnar import ColumnarMissBlock
        from repro.core.workers import ShardWorkSpec

        now = self.catalog.clock.now
        placed, miss_keys, miss_slots, miss_tokens, _ = self._split_hits(keys, now)
        if not miss_keys:
            return placed, None
        rows = [self._observation_row(key) for key in miss_keys]
        block = ColumnarMissBlock.from_sizes(
            size_lists=[row[0] for row in rows],
            targets=[row[1] for row in rows],
            partition_counts=[row[2] for row in rows],
            delete_file_counts=[row[3] for row in rows],
            created_at=[row[4] for row in rows],
            last_modified_at=[row[5] for row in rows],
            quota_utilization=[row[6] for row in rows],
        )
        spec = ShardWorkSpec(
            shard_index=shard_index,
            keys=tuple(miss_keys),
            columns={},
            slots=tuple(miss_slots),
            tokens=tuple(miss_tokens),
            target_file_size=1,  # unused: the block carries per-key targets
            now=now,
            traits=traits,
            snapshot=block,
            transport="columnar",
        )
        return placed, spec
