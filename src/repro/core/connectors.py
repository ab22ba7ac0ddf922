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
import dataclasses
import itertools
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

    Write events reaching :meth:`invalidate` — typically from the
    :class:`~repro.core.service.AutoCompService` notification inbox or a
    finished compaction — mark the affected table changed, so its next
    observation is fresh.
    """

    #: Optional configured cache
    #: (:class:`~repro.core.statscache.StatsCache` or
    #: :class:`~repro.core.statscache.IndexedCandidateCache`).  The fleet
    #: connector observes incrementally only with one; the LST connector's
    #: change feed is incremental without one, and a configured cache adds
    #: its TTL and version slack on top.
    stats_cache = None

    #: True when :meth:`observe` may return the *same annotated Candidate
    #: objects* across cycles for unchanged tables.  The pipeline then
    #: skips trait recomputation for candidates its trait registry already
    #: oriented.
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
        """Write-event hook: evict ``key``'s table from the configured cache."""
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


class _Listing:
    """Interned keys of one listing (see :meth:`LstConnector.list_candidates`)."""

    def __init__(self) -> None:
        #: ``'db.table'`` → that table's keys.
        self.keys: dict[str, tuple[CandidateKey, ...]] = {}
        #: Tables with feed events since the last listing.
        self.dirty: set[str] = set()
        #: The flat listing in catalog order.
        self.flat: list[CandidateKey] = []
        #: The connector's table-name version this listing reflects.
        self.names_version = -1


class LstConnector(Connector):
    """Catalog-of-live-tables connector, driven by a change feed.

    Args:
        catalog: the control plane whose tables are compaction targets.
        include_databases: restrict candidate generation to these databases
            (None = all).
        stats_cache: optional configured cache.  A
            :class:`~repro.core.statscache.StatsCache` caches frozen
            statistics keyed by candidate (orientation reruns every cycle);
            an :class:`~repro.core.statscache.IndexedCandidateCache` caches
            whole oriented candidates in dense slots.  Either adds its TTL
            and version slack on top of the feed.  Without one, the
            connector keeps its candidates in a private exact dense store
            (no TTL, no slack) — the same code path as the configured
            dense cache.

    **Change feed.**  The connector subscribes to its catalog
    (:meth:`~repro.catalog.catalog.Catalog.subscribe_changes`): every
    commit, ``restore_state``, ``set_policy``, ``create_table`` and
    ``drop_table``, and every :meth:`invalidate`, stamps the table with a
    fresh *epoch* — a connector-wide counter that only increases.  A
    table's epoch is the freshness token of every cached observation of
    it, so a cycle rebuilds statistics and traits only for the tables
    that changed since they were last observed.

    **Interned keys.**  Each table's :class:`CandidateKey` objects are
    built when it first appears and rebuilt only when it changes (new
    partitions under the partition and hybrid strategies; drops and
    re-creates), so :meth:`list_candidates` returns the cached listing in
    catalog order.

    **One hit rule.**  :meth:`_split_hits` decides which keys are served
    from the store or cache; :meth:`observe` and both worker exports run
    it, so a key is shipped to a process worker if and only if the
    in-process path would have re-observed it.  Observing a clean table
    costs slot reads only.  Quota, which drifts through *other* tables'
    writes, is read once per database per call; a hit whose quota moved
    gets replaced statistics and, for reused candidates, its traits
    recomputed.  A subclass that overrides :meth:`build_statistics` may
    read anything, so all of its keys are re-observed every call (the
    rule that also keeps it off process workers).

    The single-key :meth:`collect_statistics` API keeps the event/TTL-only
    trust model of a configured ``StatsCache`` and never reads the store.
    """

    def worker_transport_kinds(self) -> tuple[str, ...]:
        # Observation snapshots to frozen, picklable slices (pickle) or
        # shared-memory arrays (columnar), so this connector can feed
        # process-mode shard workers.  Workers rebuild statistics from
        # those rows, so a subclass customising build_statistics observes
        # in process (threads) instead.
        if self._custom_statistics():
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
        #: The private exact store used while no cache is configured.
        self._store = IndexedCandidateCache()
        #: Feed state: the epoch counter and each table's latest epoch.
        self._epochs = itertools.count(1)
        self._table_epoch: dict[str, int] = {}
        #: Set by create/drop events: the listed table names must be re-read.
        self._membership_stale = True
        #: The listed ``'db.table'`` names in catalog order, and a counter
        #: bumped whenever they are re-read.
        self._names: list[str] = []
        self._names_version = 0
        self._names_filter: frozenset[str] | None = None
        #: Interned listings: the table strategy's, and the one the
        #: partition and hybrid strategies share (they list identical keys).
        self._table_listing = _Listing()
        self._partition_listing = _Listing()
        self._listing_lock = threading.Lock()
        #: Dense slot interning: candidate key → slot index, and the same
        #: by the interned key object's id (no content hash per probe).
        self._index_of: dict[CandidateKey, int] = {}
        self._slot_by_id: dict[int, int] = {}
        #: Reverse mapping for table-granular invalidation.
        self._indices_by_table: dict[str, list[int]] = {}
        # Sharded pipelines observe disjoint key slices of one shared
        # connector on a thread pool; interning a *new* key reads then
        # grows two dicts, which must not interleave across threads (two
        # keys racing len() would share a slot).
        self._intern_lock = threading.Lock()
        catalog.subscribe_changes(self)

    # --- change feed ------------------------------------------------------------

    def table_changed(self, name: str, membership: bool = False) -> None:
        """Feed event: stamp ``name`` with a fresh epoch.

        Called by the catalog for every change to a table's observable
        state (``membership`` True when the set of tables changed), and by
        :meth:`invalidate`.  Safe from any thread: each step is one atomic
        dict store, set add or flag store.
        """
        self._table_epoch[name] = next(self._epochs)
        # Table-scope keys never change, so only the partitioned listing
        # follows events.
        self._partition_listing.dirty.add(name)
        if membership:
            self._membership_stale = True

    def _epoch_of(self, name: str) -> int:
        """``name``'s epoch, stamping a fresh one on first appearance."""
        epoch = self._table_epoch.get(name)
        if epoch is None:
            epoch = self._table_epoch.setdefault(name, next(self._epochs))
        return epoch

    def _custom_statistics(self) -> bool:
        """Whether a subclass customises :meth:`build_statistics`."""
        return type(self).build_statistics is not LstConnector.build_statistics

    @property
    def _dense_store(self) -> IndexedCandidateCache | None:
        """Where whole candidates live: the configured dense cache, the
        private store when nothing is configured, None under a
        ``StatsCache``.  Derived from the live ``stats_cache`` attribute, so
        assigning a cache after construction selects the right path."""
        cache = self.stats_cache
        if cache is None:
            return self._store
        if isinstance(cache, IndexedCandidateCache):
            return cache
        return None

    @property
    def reuses_candidates(self) -> bool:  # type: ignore[override]
        return self._dense_store is not None

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
                    # The dict pins the key, so its id stays its own.
                    self._slot_by_id[id(key)] = index
                    self._indices_by_table.setdefault(key.qualified_table, []).append(
                        index
                    )
        return index

    def _quota_of(self, database: str) -> float:
        try:
            return self.catalog.quota_utilization(database)
        except ValidationError:
            return 0.0

    def _split_hits(
        self, keys: list[CandidateKey], now: float
    ) -> tuple[list[Candidate | None], list[CandidateKey], list, list, list[int]]:
        """The single source of the bulk-observation hit-validity rule.

        A key hits iff its entry was stored under its table's current feed
        epoch (within the cache's TTL and slack, when one is configured)
        and the connector does not customise :meth:`build_statistics`.
        Hits whose database quota moved get replaced statistics — and,
        for reused candidates, their traits dropped so orient recomputes
        them.  Shared by :meth:`observe`, :meth:`export_shard_work` and
        :meth:`export_columnar`, so the in-process and worker paths can
        never disagree about which keys need rebuilding.

        Returns:
            ``(placed, miss_keys, miss_slots, miss_tokens,
            miss_positions)`` — ``placed`` holds the hit candidates with
            ``None`` holes; the miss lists describe the holes in order
            (keys, cache slots, freshness tokens, hole positions).
        """
        store = self._dense_store
        cache = self.stats_cache
        rebuild = self._custom_statistics()
        epochs = self._table_epoch
        # Quota is database-level: read once per database per call.
        quotas = {
            database: self._quota_of(database) for database in self.catalog.list_databases()
        }
        placed: list[Candidate | None] = [None] * len(keys)
        miss_keys: list[CandidateKey] = []
        miss_slots: list = []
        miss_tokens: list = []
        miss_positions: list[int] = []
        if store is not None:
            # Unlocked reads of the grow-only intern dicts: an index is
            # write-once, so a probe can only miss, and _dense_index
            # re-checks misses under the lock.
            slot_by_id = self._slot_by_id  # repro-lint: disable=RL001 -- grow-only intern dict; misses re-check under the lock
            hits = expirations = 0
            store.ensure_capacity(len(slot_by_id))
            slots = store.candidates
            tokens = store.tokens
            stored_ats = store.stored_ats
            ttl = store.ttl_s
            slack = store.version_slack
            for pos, key in enumerate(keys):
                name = key._qualified  # type: ignore[attr-defined] — memoised qualified_table
                token = epochs.get(name) or self._epoch_of(name)
                slot = slot_by_id.get(id(key))
                if slot is None:
                    slot = self._dense_index(key)
                    store.ensure_capacity(slot + 1)
                candidate = slots[slot]
                if (
                    candidate is not None
                    and not rebuild
                    and 0 <= token - tokens[slot] <= slack
                    and now - stored_ats[slot] < ttl
                ):
                    hits += 1
                    quota = quotas.get(key.database, 0.0)
                    statistics = candidate.statistics
                    if statistics.quota_utilization != quota:
                        candidate.statistics = dataclasses.replace(
                            statistics, quota_utilization=quota
                        )
                        candidate.traits = {}
                        candidate.oriented_by = 0
                    placed[pos] = candidate
                    continue
                if candidate is not None:
                    expirations += 1
                miss_keys.append(key)
                miss_slots.append(slot)
                miss_tokens.append(token)
                miss_positions.append(pos)
            store.record_lookups(hits, len(miss_keys), expirations)
            return placed, miss_keys, miss_slots, miss_tokens, miss_positions
        for pos, key in enumerate(keys):
            name = key.qualified_table
            token = epochs.get(name) or self._epoch_of(name)
            statistics = None if rebuild else cache.get(key, now, token)  # type: ignore[union-attr]
            if statistics is not None:
                quota = quotas.get(key.database, 0.0)
                if statistics.quota_utilization != quota:
                    statistics = dataclasses.replace(statistics, quota_utilization=quota)
                placed[pos] = Candidate(key=key, statistics=statistics)
                continue
            miss_keys.append(key)
            miss_slots.append(key)
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
        store = self._dense_store
        cache = self.stats_cache
        for key, slot, token, pos in zip(
            miss_keys, miss_slots, miss_tokens, miss_positions
        ):
            statistics = self.build_statistics(key)
            candidate = Candidate(key=key, statistics=statistics)
            if store is not None:
                store.put(slot, candidate, now, token)
            else:
                cache.put(key, statistics, now, token)  # type: ignore[union-attr]
            placed[pos] = candidate
        return placed  # type: ignore[return-value] — all holes filled

    def store_worker_observations(self, delta, candidates: list[Candidate]) -> None:
        store = self._dense_store
        if store is not None:
            store.apply_delta(delta, candidates)
        else:
            statistics = [c.statistics for c in candidates]
            self.stats_cache.apply_delta(delta, statistics)  # type: ignore[union-attr]

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: a feed event for ``key``'s table.

        Stamps the table with a fresh epoch, so every scope of it misses
        on the next observation, and evicts its entries from the store or
        configured cache.
        """
        self.table_changed(key.qualified_table)
        if self._dense_store is None:
            self.stats_cache.invalidate(key)  # type: ignore[union-attr]
        else:
            self._evict(key.qualified_table)

    def _evict(self, name: str) -> None:
        """Drop table ``name``'s candidates from the dense store."""
        store = self._dense_store
        if store is None:
            return
        # Snapshot the index list under the intern lock so a concurrent
        # _dense_index() append cannot race the iteration.
        with self._intern_lock:
            indices = list(self._indices_by_table.get(name, ()))
        for index in indices:
            store.invalidate_index(index)

    # --- interned listing ---------------------------------------------------------

    def _refresh_names(self) -> None:
        """Re-read the listed tables after create/drop events."""
        names_filter = (
            frozenset(self.include_databases) if self.include_databases is not None else None
        )
        if not self._membership_stale and names_filter == self._names_filter:
            return
        # Clear the flag first: a create/drop racing the read below sets it
        # again, so the next listing re-reads.
        self._membership_stale = False
        self._names_filter = names_filter
        old = self._names
        self._names = [
            str(ident)
            for ident in self.catalog.list_tables()
            if names_filter is None or ident.database in names_filter
        ]
        self._names_version += 1
        # Free what the store holds for dropped tables.
        for name in set(old).difference(self._names):
            self._evict(name)

    def _table_keys(
        self, partitioned: bool, name: str, old: tuple
    ) -> tuple[CandidateKey, ...]:
        """One table's keys under one listing, reusing ``old`` key objects."""
        if not partitioned and old:
            return old  # a table-scope key never changes
        table = self.catalog.load_table(name)
        # Keys carry the table's own identifier strings, as every listing
        # always has: pickled cycle reports are compared byte for byte
        # across worker modes, and string sharing shows in the bytes.
        ident = table.identifier
        if not (partitioned and table.spec.is_partitioned):
            if len(old) == 1 and old[0].scope is CandidateScope.TABLE:
                return old
            return (
                CandidateKey(
                    database=ident.database, table=ident.name, scope=CandidateScope.TABLE
                ),
            )
        partitions = table.partitions()
        if len(old) == len(partitions) and all(
            key.partition == partition for key, partition in zip(old, partitions)
        ):
            return old
        reuse = {key.partition: key for key in old if key.scope is CandidateScope.PARTITION}
        return tuple(
            reuse.get(partition)
            or CandidateKey(
                database=ident.database,
                table=ident.name,
                scope=CandidateScope.PARTITION,
                partition=partition,
            )
            for partition in partitions
        )

    def list_candidates(self, strategy: str = "table") -> list[CandidateKey]:
        """The interned listing for ``strategy``, in catalog order.

        Revisits only the tables with feed events since the previous
        listing — under the table strategy, whose keys never change, only
        created ones — and rebuilds the flat listing only when some
        table's keys changed.
        """
        if strategy not in GENERATION_STRATEGIES:
            raise ValidationError(
                f"unknown generation strategy {strategy!r}; "
                f"expected one of {GENERATION_STRATEGIES}"
            )
        partitioned = strategy != "table"
        listing = self._partition_listing if partitioned else self._table_listing
        with self._listing_lock:
            self._refresh_names()
            names = self._names
            keys = listing.keys
            dirty = listing.dirty
            touched = [dirty.pop() for _ in range(len(dirty))]
            changed = listing.names_version != self._names_version
            if changed:
                listing.names_version = self._names_version
                live = set(names)
                for name in [name for name in keys if name not in live]:
                    del keys[name]
                todo = [name for name in names if name not in keys]
            else:
                todo = []
            todo.extend(name for name in touched if name in keys)
            for name in todo:
                old = keys.get(name)
                if old is None:
                    self._epoch_of(name)
                new = self._table_keys(partitioned, name, old or ())
                if new is not old:
                    keys[name] = new
                    changed = True
                    for key in new:
                        self._dense_index(key)
            if changed:
                listing.flat = [key for name in names for key in keys[name]]
            return list(listing.flat)

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
        if self._dense_store is not None:
            # Dense stores hold whole candidates per slot (see observe);
            # single-key statistic reads bypass them.
            cache = None
        if cache is not None:
            now = self.catalog.clock.now
            cached = cache.get(key, now)
            if cached is not None:
                # Quota is database-level, so it drifts through *other*
                # tables' writes while this entry stays valid; serve it
                # re-stamped so cached observations stay exactly equal to
                # fresh ones (the invalidation sources are table-granular).
                quota = self._quota_of(key.database)
                if cached.quota_utilization != quota:
                    cached = dataclasses.replace(cached, quota_utilization=quota)
                return cached
        statistics = self.build_statistics(key)
        if cache is not None:
            cache.put(key, statistics, now)
        return statistics

    def _observation_row(self, key: CandidateKey) -> tuple:
        """The raw per-candidate observation inputs, in snapshot column order.

        ``(file_sizes, target_file_size, partition_count,
        delete_file_count, created_at, last_modified_at,
        quota_utilization, size_counts)`` — the arguments of
        :func:`~repro.catalog.snapshot.build_candidate_statistics`.  Both
        the live statistics build and the worker-bound exports come from
        this method, so the observation paths cannot drift.

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
            self._quota_of(key.database),
            counts,
        )

    def build_statistics(self, key: CandidateKey) -> CandidateStatistics:
        """Build ``key``'s statistics from the live catalog, uncached.

        The one source of every cache miss — bulk :meth:`observe` and
        single-key :meth:`collect_statistics` alike — so subclasses add
        platform-specific signals (``CandidateStatistics.custom``) here.
        """
        return build_candidate_statistics(*self._observation_row(key))

    # --- process-mode shard workers ---------------------------------------------

    def export_shard_work(
        self, keys: list[CandidateKey], shard_index: int, traits
    ) -> tuple[list[Candidate | None], "object | None"]:
        """Resolve cache hits locally; snapshot the misses into a picklable spec.

        The hit pass *is* :meth:`_split_hits` — the same code the
        in-process :meth:`observe` path runs — and the miss rows are
        captured into a frozen
        :class:`~repro.catalog.snapshot.CatalogObservationSlice` carrying
        per-key file sizes, policy targets and feed-epoch freshness
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
            versions=tuple(miss_tokens),
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
