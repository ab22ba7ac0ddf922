"""Tests for the shard worker subsystem (process-boundary contracts)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import (
    CacheDelta,
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    ComputeCostTrait,
    FileCountReductionTrait,
    IndexedCandidateCache,
    ShardCycleResult,
    ShardedPipeline,
    ShardWorkSpec,
    StatsCache,
    TraitRegistry,
    WorkerPool,
    run_shard_work,
)
from repro.core.workers import WORK_SPEC_VERSION, burn_cpu
from repro.errors import ValidationError
from repro.fleet import FleetConfig, FleetModel, ShardedAutoCompStrategy
from repro.units import DAY, GiB


def _registry() -> TraitRegistry:
    return TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=192.0, rewrite_bytes_per_hour=768 * GiB),
        ]
    )


def _spec(n: int = 3, observe_cost: int = 0) -> ShardWorkSpec:
    keys = tuple(
        CandidateKey("db", f"table{i:06d}", CandidateScope.TABLE) for i in range(n)
    )
    return ShardWorkSpec(
        shard_index=1,
        keys=keys,
        columns={
            "file_count": tuple(10 + i for i in range(n)),
            "total_bytes": tuple((10 + i) * 1024 for i in range(n)),
            "small_file_count": tuple(5 + i for i in range(n)),
            "small_file_bytes": tuple((5 + i) * 512 for i in range(n)),
            "partition_count": (1,) * n,
            "created_at": (0.0,) * n,
            "last_modified_at": tuple(float(i) * DAY for i in range(n)),
            "quota_utilization": (0.25,) * n,
        },
        slots=tuple(range(n)),
        tokens=tuple(7 + i for i in range(n)),
        target_file_size=512,
        now=2.0 * DAY,
        traits=_registry(),
        observe_cost=observe_cost,
    )


class TestWorkerPool:
    def test_rejects_unknown_mode_and_bad_width(self):
        with pytest.raises(ValidationError):
            WorkerPool(mode="fibers")  # repro-lint: disable=RL006 -- constructor validation raises before any resource is acquired
        with pytest.raises(ValidationError):
            WorkerPool(max_workers=0)  # repro-lint: disable=RL006 -- constructor validation raises before any resource is acquired

    def test_threads_run_closures_in_order(self):
        with WorkerPool(mode="threads", max_workers=2) as pool:
            results = pool.run_tasks([lambda i=i: i * i for i in range(5)])
            assert results == [0, 1, 4, 9, 16]
            assert pool.started

    def test_executor_persists_across_submissions(self):
        pool = WorkerPool(mode="threads", max_workers=1)
        try:
            pool.submit(int).result()
            first = pool._executor
            pool.submit(int).result()
            assert pool._executor is first, "pool must be reused, not respawned"
        finally:
            pool.close()
        assert not pool.started
        pool.close()  # idempotent

    def test_process_pool_rejects_closures(self):
        pool = WorkerPool(mode="processes", max_workers=1)
        try:
            with pytest.raises(ValidationError):
                pool.run_tasks([lambda: 1])
            assert not pool.started, "validation must not spawn processes"
        finally:
            pool.close()

    def test_process_pool_runs_module_level_work(self):
        spec = _spec()
        with WorkerPool(mode="processes", max_workers=1) as pool:
            result = pool.submit(run_shard_work, spec).result()
        assert isinstance(result, ShardCycleResult)
        assert [c.key for c in result.candidates] == list(spec.keys)


class TestWorkerPoolDrain:
    """Regression: close() mid-flight hung on slow work and orphaned children."""

    def test_timed_close_does_not_wait_for_slow_process_work(self):
        import multiprocessing
        import time as _time

        pool = WorkerPool(mode="processes", max_workers=2)
        pool.submit(_time.sleep, 30)
        pool.submit(_time.sleep, 30)
        started = _time.monotonic()
        pool.close(timeout=0.3)  # old close would block ~30s
        elapsed = _time.monotonic() - started
        assert elapsed < 10.0
        assert not pool.started
        # Children were terminated and joined, not orphaned to interpreter
        # teardown (where the executor machinery may already be gone).
        assert multiprocessing.active_children() == []
        pool.close(timeout=0.3)  # idempotent

    def test_timed_close_cancels_queued_thread_work(self):
        import time as _time

        pool = WorkerPool(mode="threads", max_workers=1)
        running = pool.submit(_time.sleep, 0.2)
        queued = pool.submit(_time.sleep, 0.2)
        pool.close(timeout=5.0)
        assert running.done()
        assert queued.cancelled() or queued.done()

    def test_untimed_close_still_waits(self):
        import time as _time

        pool = WorkerPool(mode="threads", max_workers=1)
        future = pool.submit(_time.sleep, 0.05)
        pool.close()  # historical behaviour: wait for running work
        assert future.done() and not future.cancelled()

    def test_future_tracking_is_pruned(self):
        pool = WorkerPool(mode="threads", max_workers=2)
        try:
            for _ in range(300):
                pool.submit(int).result()
            assert len(pool._futures) <= 65
        finally:
            pool.close()


class TestShardWorkContracts:
    def test_spec_validates_column_shape(self):
        spec = _spec()
        with pytest.raises(ValidationError):
            ShardWorkSpec(
                shard_index=0,
                keys=spec.keys,
                columns={"file_count": (1,) * len(spec.keys)},  # missing columns
                slots=spec.slots,
                tokens=spec.tokens,
                target_file_size=512,
                now=0.0,
                traits=_registry(),
            )
        with pytest.raises(ValidationError):
            dataclasses.replace(spec, tokens=(1,))  # ragged tokens

    def test_spec_and_result_pickle_round_trip(self):
        spec = _spec()
        thawed = pickle.loads(pickle.dumps(spec))
        assert thawed.keys == spec.keys
        assert thawed.columns == spec.columns
        assert thawed.tokens == spec.tokens
        assert thawed.traits.names() == spec.traits.names()
        result = run_shard_work(spec)
        revived = pickle.loads(pickle.dumps(result))
        assert revived.version == WORK_SPEC_VERSION
        assert [c.key for c in revived.candidates] == list(spec.keys)
        assert [c.traits for c in revived.candidates] == [
            c.traits for c in result.candidates
        ]
        assert revived.cache_delta.slots == spec.slots
        assert revived.cache_delta.tokens == spec.tokens

    def test_statistics_pickle_preserves_custom_mapping(self):
        stats = CandidateStatistics(
            file_count=4,
            total_bytes=100,
            small_file_count=2,
            small_file_bytes=40,
            target_file_size=64,
            custom={"scans_per_day": 3.5},
        )
        revived = pickle.loads(pickle.dumps(stats))
        assert revived == stats
        assert dict(revived.custom) == {"scans_per_day": 3.5}
        with pytest.raises(TypeError):
            revived.custom["x"] = 1.0  # stays frozen after the round trip

    def test_worker_rejects_foreign_contract_version(self):
        from repro.errors import WorkerError

        spec = dataclasses.replace(_spec(), version=WORK_SPEC_VERSION + 1)
        with pytest.raises(WorkerError, match="handshake"):
            run_shard_work(spec)

    def test_worker_output_matches_inline_observation(self):
        spec = _spec()
        result = run_shard_work(spec)
        registry = _registry()
        for i, candidate in enumerate(result.candidates):
            assert candidate.statistics.file_count == spec.columns["file_count"][i]
            expected = Candidate(key=candidate.key, statistics=candidate.statistics)
            registry.annotate_all([expected])
            assert candidate.traits == expected.traits

    def test_observe_cost_is_deterministic_and_result_neutral(self):
        cheap = run_shard_work(_spec())
        costly = run_shard_work(_spec(observe_cost=5))
        assert [c.statistics for c in cheap.candidates] == [
            c.statistics for c in costly.candidates
        ]
        assert burn_cpu(5, b"x") == burn_cpu(5, b"x")


class TestCacheDeltaMerge:
    def test_indexed_cache_learns_worker_observations(self):
        spec = _spec()
        result = run_shard_work(spec)
        cache = IndexedCandidateCache()
        assert cache.apply_delta(result.cache_delta, result.candidates) == len(spec.keys)
        for i in range(len(spec.keys)):
            assert cache.get(i, now=spec.now, token=spec.tokens[i]) is result.candidates[i]
            # A bumped version token must still evict (freshness survived).
            assert cache.get(i, now=spec.now, token=spec.tokens[i] + 1) is None

    def test_stats_cache_learns_worker_observations(self):
        spec = _spec()
        result = run_shard_work(spec)
        cache = StatsCache()
        statistics = [c.statistics for c in result.candidates]
        keyed_delta = CacheDelta(
            slots=spec.keys, tokens=spec.tokens, stored_at=spec.now
        )
        assert cache.apply_delta(keyed_delta, statistics) == len(spec.keys)
        for key, token, stats in zip(spec.keys, spec.tokens, statistics):
            assert cache.get(key, now=spec.now, token=token) is stats
        assert cache.get(spec.keys[0], now=spec.now, token=spec.tokens[0] + 1) is None

    def test_misaligned_delta_is_rejected(self):
        spec = _spec()
        result = run_shard_work(spec)
        with pytest.raises(ValidationError):
            IndexedCandidateCache().apply_delta(result.cache_delta, result.candidates[:-1])
        with pytest.raises(ValidationError):
            StatsCache().apply_delta(
                CacheDelta(slots=spec.keys, tokens=spec.tokens, stored_at=0.0),
                [c.statistics for c in result.candidates[:-1]],
            )


class TestShardedPipelineWorkerModes:
    def test_process_mode_requires_worker_observe_support(self):
        from repro.catalog import Catalog
        from repro.core import (
            AutoCompPipeline,
            Connector,
            LstConnector,
            LstExecutionBackend,
            SequentialScheduler,
            TopKSelector,
            WeightedSumPolicy,
            Objective,
        )
        from repro.engine import Cluster

        class LiveOnlyConnector(Connector):
            """A connector whose observation cannot leave the process."""

            def list_candidates(self, strategy="table"):
                return []

            def collect_statistics(self, key):
                raise NotImplementedError

        connector = LiveOnlyConnector()
        lst = LstConnector(Catalog())
        pipeline = AutoCompPipeline(
            connector=connector,
            backend=LstExecutionBackend(lst, Cluster("maint", executors=1)),
            traits=_registry(),
            policy=WeightedSumPolicy(
                [Objective("file_count_reduction", 1.0, maximize=True)]
            ),
            selector=TopKSelector(3),
            scheduler=SequentialScheduler(),
        )
        with pytest.raises(ValidationError, match="worker"):
            ShardedPipeline([pipeline], workers="processes")

    def test_rejects_unknown_worker_mode(self):
        model = FleetModel(FleetConfig(initial_tables=50, seed=1))
        strategy = ShardedAutoCompStrategy(model, n_shards=1, k=3)
        with pytest.raises(ValidationError):
            ShardedPipeline(strategy.pipeline.shards, workers="quantum")

    def test_pool_lifecycle_is_pipeline_scoped(self):
        model = FleetModel(FleetConfig(initial_tables=120, seed=4))
        model.step_day()
        with ShardedAutoCompStrategy(
            model, n_shards=2, k=5, workers="processes", max_workers=2
        ) as strategy:
            pipeline = strategy.pipeline
            pipeline.run_cycle(now=0.0)
            executor = pipeline._pool()._executor
            assert executor is not None
            model.step_day()
            pipeline.run_cycle(now=DAY)
            assert pipeline._pool()._executor is executor, (
                "the worker pool must persist across cycles"
            )
        assert pipeline._worker_pool is None

    def test_process_cycles_stay_incremental_via_cache_delta(self):
        model = FleetModel(FleetConfig(initial_tables=150, seed=11))
        model.step_day()
        with ShardedAutoCompStrategy(
            model, n_shards=2, k=5, workers="processes", max_workers=2
        ) as strategy:
            strategy.pipeline.run_cycle(now=0.0)
            cache = strategy.caches[0]
            assert cache.misses > 0 and cache.hits == 0
            model.step_day()
            strategy.pipeline.run_cycle(now=DAY)
            assert cache.hits > 0, (
                "worker observations must land in the coordinator cache"
            )


class TestWorkerSideDecide:
    """The decide contract: filter → orient → rank → select in the worker."""

    def _decided_spec(self, k: int = 2):
        from repro.core import ShardDecideSpec, TopKSelector, WeightedSumPolicy, Objective

        spec = _spec(4)
        decide = ShardDecideSpec(
            policy=WeightedSumPolicy(
                [Objective("file_count_reduction", 1.0, maximize=True)]
            ),
            selector=TopKSelector(k),
            hits=(None,) * 4,  # every key missed the coordinator cache
        )
        return dataclasses.replace(spec, decide=decide)

    def test_decision_matches_coordinator_side_decide(self):
        spec = self._decided_spec(k=2)
        result = run_shard_work(spec)
        assert result.decision is not None
        # Coordinator-side reference: observe + orient + rank + select the
        # same inputs with the same components.
        reference = run_shard_work(dataclasses.replace(spec, decide=None))
        ranked = spec.decide.policy.rank(list(reference.candidates))
        expected = spec.decide.selector.select(ranked)
        assert [c.key for c in result.decision.selected] == [c.key for c in expected]
        assert [c.statistics for c in result.decision.selected] == [
            c.statistics for c in expected
        ]
        assert result.decision.ranked == len(ranked)
        assert result.decision.after_stats_filters == 4
        assert result.decision.after_trait_filters == 4

    def test_return_payload_shrinks_to_selected(self):
        spec = self._decided_spec(k=1)
        result = run_shard_work(spec)
        # Only the selected miss crosses back — candidates and the cache
        # delta are O(selected), not O(shard candidates).
        assert len(result.candidates) == 1
        assert len(result.cache_delta) == 1
        assert result.candidates[0] is result.decision.selected[0]
        undecided = run_shard_work(dataclasses.replace(spec, decide=None))
        assert len(undecided.candidates) == 4
        assert len(pickle.dumps(result)) < len(pickle.dumps(undecided))

    def test_delta_slots_follow_the_selected_misses(self):
        spec = self._decided_spec(k=4)
        result = run_shard_work(spec)
        # TopK(4) selects all four misses; the delta must carry each one's
        # original slot/token pairing, in rank order.
        key_to_slot = dict(zip(spec.keys, spec.slots))
        assert list(result.cache_delta.slots) == [
            key_to_slot[c.key] for c in result.candidates
        ]

    def test_decide_spec_validates_hole_count(self):
        from repro.core import ShardDecideSpec, TopKSelector, WeightedSumPolicy, Objective

        spec = _spec(3)
        decide = ShardDecideSpec(
            policy=WeightedSumPolicy(
                [Objective("file_count_reduction", 1.0, maximize=True)]
            ),
            selector=TopKSelector(1),
            hits=(None,),  # 1 hole for 3 miss keys
        )
        with pytest.raises(ValidationError, match="hole"):
            dataclasses.replace(spec, decide=decide)

    def test_worker_decide_requires_local_selection(self):
        model = FleetModel(FleetConfig(initial_tables=50, seed=1))
        strategy = ShardedAutoCompStrategy(model, n_shards=2, k=4)
        with pytest.raises(ValidationError, match="local"):
            ShardedPipeline(
                strategy.pipeline.shards, selection="global", worker_decide=True
            )


class TestWorkerFailureHandling:
    def test_poisoned_spec_surfaces_worker_error_and_drains_futures(self):
        from repro.errors import WorkerError

        model = FleetModel(FleetConfig(initial_tables=120, seed=6))
        model.step_day()
        with ShardedAutoCompStrategy(
            model,
            n_shards=3,
            k=5,
            workers="processes",
            max_workers=2,
            # Pin the pickle transport: the poison patches its export hook.
            transport="pickle",
        ) as strategy:
            pipeline = strategy.pipeline
            victim = pipeline.shards[1].connector
            original = victim.export_shard_work

            def poisoned(keys, shard_index, traits):
                placed, spec = original(keys, shard_index, traits)
                if spec is not None:
                    spec = dataclasses.replace(spec, version=99)
                return placed, spec

            victim.export_shard_work = poisoned
            with pytest.raises(WorkerError, match="shard 1"):
                pipeline.run_cycle(now=0.0)
            # Outstanding sibling futures were cancelled/drained: the pool
            # is immediately reusable and the next cycle completes.
            del victim.export_shard_work
            model.step_day()
            report = pipeline.run_cycle(now=DAY)
            assert report.report.candidates_generated > 0

    def test_worker_error_chains_the_original_exception(self):
        from repro.errors import WorkerError

        model = FleetModel(FleetConfig(initial_tables=80, seed=7))
        model.step_day()
        with ShardedAutoCompStrategy(
            model,
            n_shards=2,
            k=5,
            workers="processes",
            max_workers=2,
            transport="pickle",
        ) as strategy:
            pipeline = strategy.pipeline
            victim = pipeline.shards[0].connector
            original = victim.export_shard_work
            victim.export_shard_work = lambda keys, i, traits: (_ for _ in ()).throw(
                RuntimeError("export exploded")
            )
            try:
                pipeline.run_cycle(now=0.0)
                raise AssertionError("expected WorkerError")
            except WorkerError as exc:
                assert isinstance(exc.__cause__, RuntimeError)
            finally:
                victim.export_shard_work = original
