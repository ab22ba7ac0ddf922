"""The LST connector's change feed: exact, event-driven incremental cycles.

Every cycle over the feed must equal a full rescan by a fresh connector,
while its work — statistics builds, trait computations, key
constructions — scales with the tables that changed.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.connectors as connectors_module
from repro.catalog import Catalog
from repro.catalog.policies import TablePolicy
from repro.core import (
    AutoCompPipeline,
    CandidateKey,
    CandidateScope,
    ComputeCostTrait,
    FileCountReductionTrait,
    IndexedCandidateCache,
    LstConnector,
    Objective,
    StatsCache,
    TopKSelector,
    TraitRegistry,
    WeightedSumPolicy,
    openhouse_pipeline,
)
from repro.core.candidates import CandidateStatistics
from repro.core.filters import MinTableAgeFilter, QuiescenceFilter
from repro.core.scheduling import LstExecutionBackend, SequentialScheduler
from repro.core.traits import Trait
from repro.engine import Cluster
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema
from repro.replay.trace import serialize_cycle_report
from repro.units import HOUR, MiB

from tests.conftest import fragment_table

SCHEMA = Schema.of(Field("id", "long"), Field("event_date", "date"))
MONTHLY = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
CACHES = {
    "none": lambda: None,
    "stats": StatsCache,
    "indexed": IndexedCandidateCache,
}


def _append(table, sizes, partition=()):
    txn = table.new_append()
    for size in sizes:
        txn.add_file(size, partition=partition)
    return txn.commit()


class QuotaTrait(Trait):
    """A custom trait that reads the database-level quota."""

    name = "quota"

    def compute(self, statistics):
        return statistics.quota_utilization * 100.0


class CountingTrait(Trait):
    name = "counted"

    def __init__(self):
        self.calls = 0

    def compute(self, statistics):
        self.calls += 1
        return float(statistics.file_count)


class ClockStatsConnector(LstConnector):
    """Custom statistics that change with the clock, with no table event."""

    def build_statistics(self, key):
        statistics = super().build_statistics(key)
        return dataclasses.replace(
            statistics, custom={"observed_at": self.catalog.clock.now}
        )


# --- satellite regressions ----------------------------------------------------


class TestStaleHitRegressions:
    @pytest.mark.parametrize("cache_kind", ["stats", "indexed"])
    def test_set_policy_reaches_cached_observation(self, cache_kind):
        catalog = Catalog()
        catalog.create_database("db")
        table = catalog.create_table("db.t", SCHEMA)
        _append(table, [100 * MiB, 200 * MiB, 300 * MiB])
        connector = LstConnector(catalog, stats_cache=CACHES[cache_kind]())
        key = connector.list_candidates("table")[0]
        (before,) = connector.observe([key])
        assert before.statistics.small_file_count == 3
        catalog.set_policy("db.t", TablePolicy(target_file_size=150 * MiB))
        (after,) = connector.observe([key])
        fresh = LstConnector(catalog).build_statistics(key)
        assert fresh.small_file_count == 1
        assert after.statistics == fresh
        assert after.statistics.target_file_size == 150 * MiB

    @pytest.mark.parametrize("cache_kind", ["stats", "indexed"])
    def test_drop_and_recreate_is_not_served_from_the_dropped_table(self, cache_kind):
        catalog = Catalog()
        catalog.create_database("db")
        _append(catalog.create_table("db.t", SCHEMA), [8 * MiB])
        connector = LstConnector(catalog, stats_cache=CACHES[cache_kind]())
        (before,) = connector.observe(connector.list_candidates("table"))
        assert before.statistics.file_count == 1
        catalog.drop_table("db.t")
        # Same name, same metadata version after one commit: only the
        # feed tells the two tables apart.
        _append(catalog.create_table("db.t", SCHEMA), [8 * MiB] * 3)
        (after,) = connector.observe(connector.list_candidates("table"))
        assert after.statistics.file_count == 3
        assert after.statistics == LstConnector(catalog).build_statistics(after.key)

    @pytest.mark.parametrize("cache_kind", ["none", "indexed"])
    def test_quota_reading_trait_matches_a_fresh_pipeline(self, cache_kind):
        def build(catalog, cache):
            pipeline = openhouse_pipeline(
                catalog, Cluster("maint", executors=2), k=0, min_table_age_s=0.0
            )
            pipeline.connector.stats_cache = cache
            pipeline.traits.register(QuotaTrait())
            return pipeline

        catalog = Catalog()
        catalog.create_database("db", quota_objects=2_000)
        a = catalog.create_table("db.a", SCHEMA)
        b = catalog.create_table("db.b", SCHEMA)
        fragment_table(a, partitions=[()], files_per_partition=6)
        fragment_table(b, partitions=[()], files_per_partition=6)
        pipeline = build(catalog, CACHES[cache_kind]())
        keys = pipeline.connector.list_candidates("table")
        first = {c.key: c for c in pipeline.observe_orient(keys, now=0.0)}
        a_key = CandidateKey("db", "a", CandidateScope.TABLE)
        quota_before = first[a_key].traits["quota"]
        # Ingest into the sibling table only: db.a has no event, but its
        # database's quota moved.
        fragment_table(b, partitions=[()], files_per_partition=40)
        incremental = {c.key: c for c in pipeline.observe_orient(keys, now=0.0)}
        fresh_pipeline = build(catalog, None)
        fresh = {c.key: c for c in fresh_pipeline.observe_orient(keys, now=0.0)}
        assert fresh[a_key].traits["quota"] > quota_before
        for key in keys:
            assert incremental[key].statistics == fresh[key].statistics
            assert incremental[key].traits == fresh[key].traits


class TestWeakListeners:
    def test_discarded_connectors_drop_out_of_the_feed(self):
        calls: list[str] = []

        class Spy(LstConnector):
            def table_changed(self, name, membership=False):
                calls.append(name)
                super().table_changed(name, membership)

        catalog = Catalog()
        catalog.create_database("db")
        table = catalog.create_table("db.t", SCHEMA)
        live = [Spy(catalog), Spy(catalog)]
        for _ in range(1_000):
            Spy(catalog)
        gc.collect()
        assert len(catalog._change_listeners) == len(live)
        _append(table, [MiB])
        assert calls == ["db.t"] * len(live)


class TestConcurrentFeed:
    def test_commits_racing_cycles_lose_no_event(self):
        """Events delivered from writer threads while the cycle thread lists
        and observes must all land: once writes stop, one more observation
        equals a fresh rescan."""
        import sys
        import threading

        catalog = Catalog()
        catalog.create_database("db")
        tables = []
        for i in range(6):
            spec = MONTHLY if i % 2 else None
            table = catalog.create_table(f"db.t{i}", SCHEMA, spec=spec)
            _append(table, [MiB], partition=(0,) if i % 2 else ())
            tables.append(table)
        connector = LstConnector(catalog)
        # Writers take turns on the (unsynchronised) simulated filesystem;
        # the race under test is between their feed events and the cycle.
        write_lock = threading.Lock()
        errors: list[BaseException] = []

        def writer(offset: int) -> None:
            try:
                for round_index in range(150):
                    table = tables[(offset + round_index) % len(tables)]
                    # A new partition per commit: every event changes keys.
                    partition = ()
                    if table.spec.is_partitioned:
                        partition = (1 + offset * 1000 + round_index,)
                    with write_lock:
                        _append(table, [MiB], partition=partition)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
            for thread in writers:
                thread.start()
            while any(thread.is_alive() for thread in writers):
                connector.observe(connector.list_candidates("hybrid"))
            for thread in writers:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        keys = connector.list_candidates("hybrid")
        fresh = LstConnector(catalog)
        assert keys == fresh.list_candidates("hybrid")
        assert [c.statistics for c in connector.observe(keys)] == [
            c.statistics for c in fresh.observe(keys)
        ]


# --- exact work counters -------------------------------------------------------


class TestWorkCounters:
    """Work per cycle is exact in the number of keys of the changed tables."""

    def _world(self):
        catalog = Catalog()
        catalog.create_database("db0")
        catalog.create_database("db1")
        for i in range(12):
            partitioned = i % 3 == 0
            table = catalog.create_table(
                f"db{i % 2}.t{i:02d}", SCHEMA, spec=MONTHLY if partitioned else None
            )
            partitions = [(0,), (1,)] if partitioned else [()]
            fragment_table(table, partitions=partitions, files_per_partition=3)
        return catalog

    def _counted_pipeline(self, catalog, generation):
        pipeline = openhouse_pipeline(
            catalog,
            Cluster("maint", executors=2),
            k=0,
            min_table_age_s=0.0,
            min_small_files=0,
            generation=generation,
        )
        trait = CountingTrait()
        pipeline.traits.register(trait)
        return pipeline, trait

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"builds": 0, "keys": 0}
        build = connectors_module.build_candidate_statistics

        def counting_build(*args, **kwargs):
            counts["builds"] += 1
            return build(*args, **kwargs)

        post_init = CandidateKey.__post_init__

        def counting_post_init(self):
            counts["keys"] += 1
            post_init(self)

        monkeypatch.setattr(connectors_module, "build_candidate_statistics", counting_build)
        monkeypatch.setattr(CandidateKey, "__post_init__", counting_post_init)
        return counts

    @pytest.mark.parametrize("generation", ["table", "partition", "hybrid"])
    def test_counts_scale_with_the_changed_tables(self, counters, generation):
        catalog = self._world()
        pipeline, trait = self._counted_pipeline(catalog, generation)
        pipeline.run_cycle(now=catalog.clock.now)
        keys = pipeline.connector.list_candidates(generation)
        per_table: dict[str, int] = {}
        for key in keys:
            per_table[key.qualified_table] = per_table.get(key.qualified_table, 0) + 1
        for changed in (["db0.t00"], ["db1.t01", "db0.t02", "db1.t03"], []):
            for name in changed:
                table = catalog.load_table(name)
                partition = (0,) if table.spec.is_partitioned else ()
                _append(table, [4 * MiB, 5 * MiB], partition=partition)
            counters.update(builds=0, keys=0)
            trait.calls = 0
            pipeline.run_cycle(now=catalog.clock.now)
            expected = sum(per_table[name] for name in changed)
            assert counters["builds"] == expected
            assert trait.calls == expected
            assert counters["keys"] == 0

    def test_keys_are_built_only_for_new_partitions_and_tables(self, counters):
        catalog = self._world()
        pipeline, _ = self._counted_pipeline(catalog, "hybrid")
        pipeline.run_cycle(now=catalog.clock.now)
        _append(catalog.load_table("db0.t00"), [MiB], partition=(7,))
        counters.update(keys=0)
        pipeline.run_cycle(now=catalog.clock.now)
        assert counters["keys"] == 1  # the new partition's key
        table = catalog.create_table("db1.new", SCHEMA)
        fragment_table(table, partitions=[()], files_per_partition=3)
        counters.update(keys=0)
        report = pipeline.run_cycle(now=catalog.clock.now)
        assert counters["keys"] == 1  # the new table's key
        catalog.drop_table("db1.new")
        counters.update(keys=0)
        after = pipeline.run_cycle(now=catalog.clock.now)
        assert counters["keys"] == 0
        assert after.candidates_generated == report.candidates_generated - 1
        # The dropped table's candidate no longer occupies the store.
        connector = pipeline.connector
        (slot,) = connector._indices_by_table["db1.new"]
        assert connector._store.candidates[slot] is None


# --- the full-rescan oracle ------------------------------------------------------


TABLES = 6


def _oracle_world():
    catalog = Catalog()
    catalog.create_database("db0", quota_objects=5_000)
    catalog.create_database("db1")
    for i in range(TABLES):
        partitioned = i % 2 == 0
        table = catalog.create_table(
            f"db{i % 2}.t{i}", SCHEMA, spec=MONTHLY if partitioned else None
        )
        partitions = [(0,), (1,)] if partitioned else [()]
        fragment_table(table, partitions=partitions, files_per_partition=2 + i)
    return catalog


def _registries():
    cluster = Cluster("maint", executors=2)
    first = TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(
                executor_memory_gb=cluster.total_memory_gb, rewrite_bytes_per_hour=1e11
            ),
        ]
    )
    # Same trait names, different parameters, plus a quota reader.
    second = TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=1.0, rewrite_bytes_per_hour=3e9),
            QuotaTrait(),
        ]
    )
    return [first, second]


def _pipelines(catalog, connector, generation, cycle_index=0):
    pipelines = []
    for index, traits in enumerate(_registries()):
        objectives = [
            Objective("file_count_reduction", 0.7, maximize=True),
            Objective("compute_cost_gbhr", 0.3, maximize=False),
        ]
        pipeline = AutoCompPipeline(
            connector=connector,
            backend=LstExecutionBackend(connector, Cluster("maint", executors=2)),
            traits=traits,
            policy=WeightedSumPolicy(objectives),
            selector=TopKSelector(1 + index),
            scheduler=SequentialScheduler(),
            generation=generation,
            stats_filters=[MinTableAgeFilter(HOUR), QuiescenceFilter(2 * HOUR)],
        )
        pipeline._cycle_index = cycle_index
        captured: list = []
        annotate = traits.annotate_all

        def capture(candidates, only_missing=False, _annotate=annotate, _out=captured):
            _annotate(candidates, only_missing=only_missing)
            _out.append(
                [
                    (str(c.key), _statistics_fields(c.statistics), sorted(c.traits.items()))
                    for c in candidates
                ]
            )

        traits.annotate_all = capture
        pipeline.captured = captured
        pipelines.append(pipeline)
    return pipelines


def _statistics_fields(statistics: CandidateStatistics) -> tuple:
    return tuple(
        dict(value) if field.name == "custom" else value
        for field, value in (
            (f, getattr(statistics, f.name)) for f in dataclasses.fields(statistics)
        )
    )


def _cycle(pipelines, catalog) -> list:
    out = []
    for pipeline in pipelines:
        pipeline.captured.clear()
        report = pipeline.run_cycle(now=catalog.clock.now)
        out.append(
            (
                json.dumps(serialize_cycle_report(report), sort_keys=True),
                list(pipeline.captured),
            )
        )
    return out


def _checkpoint(table) -> dict:
    snapshot = table.current_snapshot()
    return dict(
        version=table.version,
        next_file_id=table._next_file_id,
        next_snapshot_id=table._next_snapshot_id,
        current_snapshot_id=snapshot.snapshot_id if snapshot else None,
        created_at=table.created_at,
        last_modified_at=table.last_modified_at,
        files=[(f.file_id, f.partition, f.size_bytes) for f in table.live_files()],
        partition_mtimes=dict(table._partition_last_modified),
    )


EVENTS = st.one_of(
    st.tuples(
        st.just("append"),
        st.integers(0, TABLES - 1),
        st.integers(0, 3),
        st.lists(st.integers(1, 700), min_size=1, max_size=4),
    ),
    st.tuples(st.just("recreate"), st.integers(0, TABLES - 1), st.integers(0, 5)),
    st.tuples(st.just("restore"), st.integers(0, TABLES - 1), st.integers(0, TABLES - 1)),
    st.tuples(st.just("policy"), st.integers(0, TABLES - 1), st.sampled_from([64, 150, 512])),
    st.tuples(st.just("clock"), st.sampled_from([60.0, 1_800.0, 3 * HOUR, 2 * 86_400.0])),
    st.tuples(st.just("notify"), st.integers(0, TABLES - 1)),
)


def _name(index: int) -> str:
    return f"db{index % 2}.t{index}"


def _apply(event, catalog) -> None:
    """Apply one catalog event (``notify`` and ``restore`` run in the test)."""
    kind = event[0]
    if kind == "append":
        _, index, partition, sizes = event
        table = catalog.load_table(_name(index))
        part = (partition,) if table.spec.is_partitioned else ()
        _append(table, [size * MiB for size in sizes], partition=part)
    elif kind == "recreate":
        _, index, files = event
        name = _name(index)
        spec = catalog.load_table(name).spec
        catalog.drop_table(name)
        table = catalog.create_table(name, SCHEMA, spec=spec)
        if files:
            part = (0,) if spec.is_partitioned else ()
            _append(table, [8 * MiB] * files, partition=part)
    elif kind == "policy":
        _, index, target = event
        catalog.set_policy(_name(index), TablePolicy(target_file_size=target * MiB))
    elif kind == "clock":
        catalog.clock.advance_by(event[1])


@pytest.mark.parametrize("config", ["none", "stats", "indexed", "custom"])
@given(
    generation=st.sampled_from(["table", "partition", "hybrid"]),
    events=st.lists(EVENTS, min_size=1, max_size=10),
)
@settings(max_examples=25, deadline=None)
def test_feed_cycles_equal_a_full_rescan(config, generation, events):
    """Each cycle's report, statistics and traits equal a fresh connector's.

    Two identical worlds see the same events: one is observed through a
    long-lived connector shared by two pipelines with different trait
    registries, the other through a fresh connector every cycle.
    """
    connector_cls = ClockStatsConnector if config == "custom" else LstConnector
    cache = CACHES.get(config, lambda: None)()
    live, rescanned = _oracle_world(), _oracle_world()
    for catalog in (live, rescanned):
        catalog.clock.advance_by(2 * HOUR)
    connector = connector_cls(live, stats_cache=cache)
    incremental = _pipelines(live, connector, generation)
    cycles = 0

    def step():
        nonlocal cycles
        fresh = _pipelines(
            rescanned, connector_cls(rescanned), generation, cycle_index=cycles
        )
        assert _cycle(incremental, live) == _cycle(fresh, rescanned)
        cycles += 1

    step()
    for event in events:
        if event[0] == "notify":
            key = CandidateKey(*_name(event[1]).split("."), CandidateScope.TABLE)
            incremental[0].invalidate(key)
        elif event[0] == "restore":
            # Drop and re-create empty, observe the empty table, then load
            # another table's checkpoint outside the commit protocol.
            _, index, source = event
            # A source with the same partition spec (even indices are
            # partitioned).
            source = source - source % 2 + index % 2
            states = {}
            for catalog in (live, rescanned):
                states[id(catalog)] = _checkpoint(catalog.load_table(_name(source)))
                spec = catalog.load_table(_name(index)).spec
                catalog.drop_table(_name(index))
                catalog.create_table(_name(index), SCHEMA, spec=spec)
            step()
            for catalog in (live, rescanned):
                catalog.load_table(_name(index)).restore_state(**states[id(catalog)])
        else:
            for catalog in (live, rescanned):
                _apply(event, catalog)
        step()
