"""Tests for the incremental-observation caches (statscache)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    AutoCompService,
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    IndexedCandidateCache,
    LstConnector,
    StatsCache,
    openhouse_pipeline,
)
from repro.engine import Cluster
from repro.errors import ValidationError
from repro.fleet import (
    AutoCompStrategy,
    FleetConfig,
    FleetConnector,
    FleetModel,
    ShardedAutoCompStrategy,
)
from repro.units import DAY, MiB

from tests.conftest import fragment_table


def _stats(small: int = 5, total: int = 10) -> CandidateStatistics:
    sizes = [8 * MiB] * small + [600 * MiB] * (total - small)
    return CandidateStatistics.from_file_sizes(sizes, target_file_size=512 * MiB)


def _table_key(db: str = "db", table: str = "events") -> CandidateKey:
    return CandidateKey(db, table, CandidateScope.TABLE)


def _partition_key(partition) -> CandidateKey:
    return CandidateKey("db", "events", CandidateScope.PARTITION, partition=partition)


class TestStatsCache:
    def test_put_then_get_hits(self):
        cache = StatsCache()
        key, stats = _table_key(), _stats()
        assert cache.get(key) is None
        cache.put(key, stats)
        assert cache.get(key) is stats
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert key in cache and len(cache) == 1

    def test_ttl_expiry_evicts(self):
        cache = StatsCache(ttl_s=10.0)
        key, stats = _table_key(), _stats()
        cache.put(key, stats, now=100.0)
        assert cache.get(key, now=109.9) is stats
        assert cache.get(key, now=110.0) is None  # aged out
        assert cache.expirations == 1
        assert key not in cache

    def test_token_mismatch_evicts(self):
        cache = StatsCache()
        key, stats = _table_key(), _stats()
        cache.put(key, stats, token=3)
        assert cache.get(key, token=3) is stats
        assert cache.get(key, token=4) is None
        assert cache.expirations == 1

    def test_invalidate_drops_all_scopes_of_the_table(self):
        cache = StatsCache()
        cache.put(_table_key(), _stats())
        cache.put(_partition_key((0,)), _stats())
        cache.put(_partition_key((1,)), _stats())
        cache.put(_table_key(table="other"), _stats())
        dropped = cache.invalidate(_partition_key((0,)))
        assert dropped == 3
        assert cache.invalidations == 3
        assert len(cache) == 1
        assert _table_key(table="other") in cache

    def test_invalidate_key_is_exact(self):
        cache = StatsCache()
        cache.put(_table_key(), _stats())
        cache.put(_partition_key((0,)), _stats())
        assert cache.invalidate_key(_partition_key((0,)))
        assert not cache.invalidate_key(_partition_key((0,)))
        assert _table_key() in cache

    def test_clear_preserves_counters(self):
        cache = StatsCache()
        cache.put(_table_key(), _stats())
        cache.get(_table_key())
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValidationError):
            StatsCache(ttl_s=0)


class TestIndexedCandidateCache:
    def _candidate(self, index: int = 0) -> Candidate:
        return Candidate(key=_table_key(table=f"table{index:06d}"), statistics=_stats())

    def test_put_then_get_hits_with_matching_token(self):
        cache = IndexedCandidateCache()
        candidate = self._candidate()
        cache.put(3, candidate, now=0.0, token=7)
        assert cache.get(3, token=7) is candidate
        assert cache.get(3, token=8) is None  # version bumped -> stale
        assert (cache.hits, cache.misses) == (1, 1)

    def test_ttl_expiry(self):
        cache = IndexedCandidateCache(ttl_s=5.0)
        candidate = self._candidate()
        cache.put(0, candidate, now=0.0, token=1)
        assert cache.get(0, now=4.9, token=1) is candidate
        assert cache.get(0, now=5.0, token=1) is None

    def test_invalidate_index(self):
        cache = IndexedCandidateCache()
        cache.put(2, self._candidate(), token=1)
        assert cache.invalidate_index(2)
        assert not cache.invalidate_index(2)
        assert not cache.invalidate_index(99)  # out of capacity: no-op
        assert cache.get(2, token=1) is None
        assert cache.invalidations == 1

    def test_unseen_index_is_a_miss(self):
        cache = IndexedCandidateCache()
        assert cache.get(41) is None
        assert cache.misses == 1


class TestLstConnectorCaching:
    def _world(self, catalog, simple_schema, monthly_spec):
        catalog.create_database("db")
        table = catalog.create_table("db.events", simple_schema, spec=monthly_spec)
        fragment_table(table)
        return table

    def test_second_observation_is_served_from_cache(
        self, catalog, simple_schema, monthly_spec
    ):
        self._world(catalog, simple_schema, monthly_spec)
        cache = StatsCache()
        connector = LstConnector(catalog, stats_cache=cache)
        key = connector.list_candidates("table")[0]
        first = connector.collect_statistics(key)
        second = connector.collect_statistics(key)
        assert second is first  # the frozen statistics object itself
        assert cache.hits == 1

    def test_invalidate_forces_reobservation(self, catalog, simple_schema, monthly_spec):
        table = self._world(catalog, simple_schema, monthly_spec)
        cache = StatsCache()
        connector = LstConnector(catalog, stats_cache=cache)
        key = connector.list_candidates("table")[0]
        before = connector.collect_statistics(key)
        fragment_table(table, partitions=[(2,)], files_per_partition=4)
        # Trust model: without an event the stale entry is still served...
        assert connector.collect_statistics(key) is before
        # ...and the write event evicts it.
        connector.invalidate(key)
        after = connector.collect_statistics(key)
        assert after.file_count == before.file_count + 4

    def test_ttl_fallback_uses_the_catalog_clock(
        self, catalog, simple_schema, monthly_spec
    ):
        table = self._world(catalog, simple_schema, monthly_spec)
        cache = StatsCache(ttl_s=60.0)
        connector = LstConnector(catalog, stats_cache=cache)
        key = connector.list_candidates("table")[0]
        before = connector.collect_statistics(key)
        fragment_table(table, partitions=[(2,)], files_per_partition=4)
        catalog.clock.advance_by(61.0)
        assert connector.collect_statistics(key).file_count == before.file_count + 4
        assert cache.expirations == 1


class TestServiceNotifyInvalidation:
    def test_notify_drains_into_cache_invalidation(
        self, catalog, simple_schema, monthly_spec, compaction_cluster
    ):
        catalog.create_database("db")
        hot = catalog.create_table("db.hot", simple_schema, spec=monthly_spec)
        catalog.create_table("db.cold", simple_schema, spec=monthly_spec)
        fragment_table(hot)
        fragment_table(catalog.load_table("db.cold"))
        pipeline = openhouse_pipeline(
            catalog, compaction_cluster, k=0, min_table_age_s=0.0
        )
        cache = StatsCache()
        pipeline.connector.stats_cache = cache
        service = AutoCompService(pipeline)
        service.run_cycle()  # cold: fills the cache for both tables
        assert len(cache) == 2
        service.notify(CandidateKey("db", "hot", CandidateScope.TABLE))
        service.run_cycle()
        # The notified table was re-observed; the cold one was served.
        assert cache.invalidations == 1
        assert cache.hits >= 1


class TestCachedCycleDeterminism:
    """NFR2: a cached cycle is byte-identical to a cold one."""

    def test_fleet_cached_cycles_match_cold_cycles(self):
        config = FleetConfig(initial_tables=250, seed=44)

        def run(with_cache: bool):
            model = FleetModel(config)
            model.step_day()
            strategy = AutoCompStrategy(model, k=15)
            if with_cache:
                cache = IndexedCandidateCache()
                strategy.pipeline.connector.stats_cache = cache
            reports = []
            for day in range(3):
                reports.append(strategy.pipeline.run_cycle(now=float(day) * DAY))
                model.step_day()
            hits = cache.hits if with_cache else 0
            return [dataclasses.asdict(r) for r in reports], hits

        cold_reports, _ = run(with_cache=False)
        cached_reports, hits = run(with_cache=True)
        assert hits > 0  # later cycles really were served from the cache
        assert cached_reports == cold_reports

    def test_lst_cached_cycle_matches_cold_cycle(
        self, simple_schema, monthly_spec
    ):
        from repro.catalog import Catalog

        def run(with_cache: bool):
            catalog = Catalog()
            catalog.create_database("db")
            for name in ("a", "b", "c"):
                fragment_table(
                    catalog.create_table(f"db.{name}", simple_schema, spec=monthly_spec)
                )
            pipeline = openhouse_pipeline(
                catalog, Cluster("maint", executors=3), k=1, min_table_age_s=0.0
            )
            cache = StatsCache() if with_cache else None
            pipeline.connector.stats_cache = cache
            # The act phase self-invalidates compacted tables, so the
            # second cycle re-observes exactly those; untouched tables are
            # served from the cache.
            first = dataclasses.asdict(pipeline.run_cycle(now=0.0))
            second = dataclasses.asdict(pipeline.run_cycle(now=0.0))
            return first, second, cache

        cold_first, cold_second, _ = run(with_cache=False)
        warm_first, warm_second, cache = run(with_cache=True)
        assert cache.hits > 0
        assert warm_first == cold_first
        assert warm_second == cold_second


class TestFleetConnectorCache:
    def test_rejects_dict_cache(self):
        model = FleetModel(FleetConfig(initial_tables=20, seed=2))
        with pytest.raises(ValidationError):
            FleetConnector(model, stats_cache=StatsCache())

    def test_version_token_invalidation_on_write_and_compact(self):
        model = FleetModel(FleetConfig(initial_tables=40, seed=2))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        keys = connector.list_candidates()
        first = connector.observe(keys)
        misses_after_cold = cache.misses
        second = connector.observe(keys)
        assert cache.misses == misses_after_cold  # all hits
        assert all(a is b for a, b in zip(first, second))  # candidate reuse
        # A compaction bumps the table's stats_version: next observe
        # rebuilds exactly that candidate's statistics (the candidate
        # object is reused, so compare the statistics reference).
        index = int(keys[0].table[len("table"):])
        stats_before = second[0].statistics
        untouched_before = second[1].statistics
        model.compact(index)
        third = connector.observe(keys)
        assert third[0] is second[0]
        assert third[0].statistics is not stats_before
        assert third[1].statistics is untouched_before

    def test_notify_style_invalidation_via_connector(self):
        model = FleetModel(FleetConfig(initial_tables=30, seed=6))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        keys = connector.list_candidates()
        connector.observe(keys)
        connector.invalidate(keys[3])
        assert cache.invalidations == 1


class TestReviewRegressions:
    def test_clear_keeps_bulk_accessor_aliases_live(self):
        cache = IndexedCandidateCache()
        slots = cache.candidates
        cache.put(1, Candidate(key=_table_key(), statistics=_stats()), token=1)
        cache.clear()
        assert slots is cache.candidates and len(slots) == 0
        cache.put(0, Candidate(key=_table_key(), statistics=_stats()), token=1)
        assert slots[0] is cache.candidates[0]

    def test_cached_quota_is_restamped_while_table_is_clean(self):
        """Database quota drifts via *other* tables' writes; hits must not
        serve the stale value (it feeds the quota-aware ranking)."""
        model = FleetModel(FleetConfig(initial_tables=120, seed=12))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        for _ in range(6):
            candidates = connector.observe(connector.list_candidates())
            model.step_day()
        assert cache.hits > 0
        fresh_quota = model.observe_view().quota
        for candidate in connector.observe(connector.list_candidates()):
            index = int(candidate.key.table[len("table"):])
            assert candidate.statistics.quota_utilization == fresh_quota[index]

    def test_build_unchecked_matches_the_dataclass_field_for_field(self):
        """Guards the trusted constructor against future field drift: a new
        CandidateStatistics field must show up here (dataclass __eq__
        compares every declared field, raising on a missing attribute)."""
        normal = CandidateStatistics(
            file_count=7,
            total_bytes=700,
            small_file_count=3,
            small_file_bytes=120,
            target_file_size=512,
            file_sizes=(),
            partition_count=2,
            created_at=1.5,
            last_modified_at=2.5,
            quota_utilization=0.25,
        )
        trusted = CandidateStatistics.build_unchecked(
            file_count=7,
            total_bytes=700,
            small_file_count=3,
            small_file_bytes=120,
            target_file_size=512,
            partition_count=2,
            created_at=1.5,
            last_modified_at=2.5,
            quota_utilization=0.25,
        )
        assert trusted == normal
        declared = {f.name for f in dataclasses.fields(CandidateStatistics)}
        assert set(trusted.__dict__) == declared

    def test_lst_cached_quota_is_restamped_on_hit(
        self, catalog, simple_schema, monthly_spec
    ):
        """Quota drifts via *other* tables in the database; LST cache hits
        must serve the fresh value (it feeds quota-aware ranking)."""
        catalog.create_database("db", quota_objects=500)
        a = catalog.create_table("db.a", simple_schema, spec=monthly_spec)
        b = catalog.create_table("db.b", simple_schema, spec=monthly_spec)
        fragment_table(a)
        cache = StatsCache()
        connector = LstConnector(catalog, stats_cache=cache)
        key = CandidateKey("db", "a", CandidateScope.TABLE)
        before = connector.collect_statistics(key)
        quota_before = before.quota_utilization
        fragment_table(b, partitions=[(0,)], files_per_partition=50)
        cached = connector.collect_statistics(key)
        assert cache.hits == 1  # still a cache hit...
        fresh = LstConnector(catalog).collect_statistics(key)
        assert fresh.quota_utilization > quota_before  # the drift really happened
        assert cached == fresh  # ...served with the fresh quota
        # Re-stamped by replacement: the frozen cached object is untouched.
        assert before.quota_utilization == quota_before

    def test_compaction_self_invalidates_the_cache(
        self, catalog, simple_schema, monthly_spec, compaction_cluster
    ):
        """Without any external notify, a compacted table must be
        re-observed next cycle (not re-selected forever on stale stats)."""
        catalog.create_database("db")
        for name in ("a", "b"):
            fragment_table(
                catalog.create_table(f"db.{name}", simple_schema, spec=monthly_spec)
            )
        pipeline = openhouse_pipeline(
            catalog, compaction_cluster, k=1, min_table_age_s=0.0
        )
        pipeline.connector.stats_cache = StatsCache()
        first = pipeline.run_cycle(now=0.0)
        assert first.results and first.results[0].success
        compacted = first.results[0].candidate
        second = pipeline.run_cycle(now=0.0)
        # The stale entry was evicted, so the clean table is now ranked
        # ahead of the just-compacted one instead of re-selecting it.
        assert second.selected and second.selected[0] != compacted
        assert pipeline.connector.stats_cache.invalidations >= 1


class TestVersionSlack:
    """Opt-in approximate staleness tolerance (version_slack, default off)."""

    def test_statscache_slack_serves_slightly_stale_entries(self):
        cache = StatsCache(version_slack=2)
        key, stats = _table_key(), _stats()
        cache.put(key, stats, token=10)
        assert cache.get(key, token=11) is stats  # 1 version behind: hit
        assert cache.get(key, token=12) is stats  # 2 behind: still inside slack
        assert cache.get(key, token=13) is None   # 3 behind: stale
        assert cache.expirations == 1

    def test_statscache_slack_defaults_to_exact(self):
        cache = StatsCache()
        key, stats = _table_key(), _stats()
        cache.put(key, stats, token=10)
        assert cache.get(key, token=11) is None

    def test_statscache_slack_never_accepts_backwards_tokens(self):
        cache = StatsCache(version_slack=5)
        key, stats = _table_key(), _stats()
        cache.put(key, stats, token=10)
        assert cache.get(key, token=9) is None  # token regressed: not a hit

    def test_statscache_slack_requires_integer_tokens(self):
        cache = StatsCache(version_slack=5)
        key, stats = _table_key(), _stats()
        cache.put(key, stats, token="etag-a")
        assert cache.get(key, token="etag-b") is None

    def test_indexed_cache_slack(self):
        cache = IndexedCandidateCache(version_slack=1)
        candidate = Candidate(key=_table_key(), statistics=_stats())
        cache.put(0, candidate, token=5)
        assert cache.get(0, token=6) is candidate
        assert cache.get(0, token=7) is None

    def test_rejects_negative_slack(self):
        with pytest.raises(ValidationError):
            StatsCache(version_slack=-1)
        with pytest.raises(ValidationError):
            IndexedCandidateCache(version_slack=-1)

    def test_fleet_connector_honours_slack(self):
        model = FleetModel(FleetConfig(initial_tables=40, seed=2))
        model.step_day()
        cache = IndexedCandidateCache(version_slack=1)
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        keys = connector.list_candidates()
        first = connector.observe(keys)
        stats_before = first[0].statistics
        index = int(keys[0].table[len("table"):])
        # One version of drift stays within slack: the cached statistics
        # are served even though the table compacted.
        model.compact(index)
        second = connector.observe(keys)
        assert second[0].statistics is stats_before
        # A second version bump exceeds the slack: re-observed.
        model.compact(index)
        third = connector.observe(keys)
        assert third[0].statistics is not stats_before

    def test_sharded_strategy_slack_increases_hit_rate(self):
        def hit_rate(slack: int) -> float:
            model = FleetModel(FleetConfig(initial_tables=150, seed=9))
            model.step_day()
            strategy = ShardedAutoCompStrategy(
                model, n_shards=2, k=3, version_slack=slack
            )
            for _ in range(5):
                strategy.run_day(model, model.day)
                model.step_day()
            (cache,) = strategy.caches
            return cache.hit_rate

        assert hit_rate(3) > hit_rate(0)

    def test_statscache_slack_accepts_numpy_integer_tokens(self):
        import numpy as np

        cache = StatsCache(version_slack=2)
        key, stats = _table_key(), _stats()
        cache.put(key, stats, token=np.int64(10))
        assert cache.get(key, token=np.int64(11)) is stats
        assert cache.get(key, token=np.int64(13)) is None


class TestStatsCacheThreadSafety:
    """Shards sharing one key-hashed cache on a thread pool must not race."""

    def test_concurrent_disjoint_shards_keep_exact_accounting(self):
        import threading

        cache = StatsCache()
        n_threads, n_keys, rounds = 8, 40, 25
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def shard(worker: int) -> None:
            try:
                keys = [
                    _table_key(db=f"db{worker}", table=f"t{i}") for i in range(n_keys)
                ]
                barrier.wait()
                for _ in range(rounds):
                    for key in keys:
                        if cache.get(key, now=0.0) is None:
                            cache.put(key, _stats(), now=0.0)
                    cache.invalidate(keys[0])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=shard, args=(worker,)) for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        lookups = n_threads * rounds * n_keys
        # Exact accounting under contention: every lookup was classified
        # exactly once (lost updates would leave the sum short).
        assert cache.hits + cache.misses == lookups
        # Each round's invalidate forces exactly one re-observation per
        # thread after round one.
        assert cache.invalidations == n_threads * rounds
        # The final round's invalidate leaves each thread's first key out.
        assert len(cache) == n_threads * (n_keys - 1)


class TestIndexedCacheThreadSafety:
    def test_concurrent_disjoint_gets_keep_exact_accounting(self):
        """Thread-sharded connectors call get() concurrently for disjoint
        slots; the shared hit/miss/expiration counters must not lose
        updates."""
        import threading

        n_threads, n_slots, rounds = 8, 50, 40
        cache = IndexedCandidateCache()
        for index in range(n_threads * n_slots):
            cache.put(index, Candidate(key=_table_key(), statistics=_stats()), token=1)
        barrier = threading.Barrier(n_threads)

        def shard(worker: int) -> None:
            base = worker * n_slots
            barrier.wait()
            for round_index in range(rounds):
                for offset in range(n_slots):
                    # Alternate valid and never-cached lookups so hits and
                    # misses both race.
                    index = base + offset if round_index % 2 == 0 else 10**6 + base
                    cache.get(index, token=1)

        threads = [
            threading.Thread(target=shard, args=(worker,)) for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Even rounds are all hits, odd rounds all (out-of-capacity) misses.
        assert cache.hits == n_threads * (rounds // 2) * n_slots
        assert cache.misses == n_threads * (rounds // 2) * n_slots
        assert cache.expirations == 0


class TestEvictionAccountingParity:
    """Both cache kinds must report identical accounting for one scenario."""

    def _scenario_sparse(self) -> tuple[int, int, int, int]:
        cache = StatsCache(ttl_s=100.0)
        key = _table_key()
        cache.put(key, _stats(), now=0.0, token=1)
        assert cache.get(key, now=1.0, token=1) is not None  # hit
        assert cache.get(key, now=1.0, token=2) is None  # token expiration
        cache.put(key, _stats(), now=1.0, token=2)
        assert cache.get(key, now=500.0, token=2) is None  # TTL expiration
        cache.put(key, _stats(), now=500.0, token=2)
        cache.invalidate(key)  # write event
        assert cache.get(key, now=500.0, token=2) is None  # plain miss
        return (cache.hits, cache.misses, cache.invalidations, cache.expirations)

    def _scenario_dense(self) -> tuple[int, int, int, int]:
        cache = IndexedCandidateCache(ttl_s=100.0)
        candidate = Candidate(key=_table_key(), statistics=_stats())
        cache.put(0, candidate, now=0.0, token=1)
        assert cache.get(0, now=1.0, token=1) is not None  # hit
        assert cache.get(0, now=1.0, token=2) is None  # token expiration
        cache.put(0, candidate, now=1.0, token=2)
        assert cache.get(0, now=500.0, token=2) is None  # TTL expiration
        cache.put(0, candidate, now=500.0, token=2)
        cache.invalidate_index(0)  # write event
        assert cache.get(0, now=500.0, token=2) is None  # plain miss
        return (cache.hits, cache.misses, cache.invalidations, cache.expirations)

    def test_same_scenario_same_counters(self):
        assert self._scenario_sparse() == self._scenario_dense()
        assert self._scenario_sparse() == (1, 3, 1, 2)

    def test_dense_bulk_path_counts_expirations(self):
        """The fleet connector's inline hit pass must account evictions the
        same way IndexedCandidateCache.get does."""
        model = FleetModel(FleetConfig(initial_tables=60, seed=3))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=2, stats_cache=cache)
        keys = connector.list_candidates("table")
        connector.observe(keys)
        assert cache.expirations == 0
        model.step_day()  # writes bump versions: cached entries turn stale
        keys = connector.list_candidates("table")
        connector.observe(keys)
        assert cache.expirations > 0
        assert cache.expirations <= cache.misses
