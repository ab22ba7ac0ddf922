"""The OODA pipeline: observe → orient → decide → act (§3.3, Figure 4).

One :meth:`AutoCompPipeline.run_cycle` call performs a full pass:

1. **generate** candidate keys from the connector (table / partition /
   hybrid strategy);
2. **observe** — collect the standardized statistics for each key, then
   apply the statistics filters;
3. **orient** — compute every registered trait, then apply the trait
   filters;
4. **decide** — rank with the configured policy and select within budget;
5. **act** — hand the selected tasks to the scheduler/backend.

An optional feedback loop (act → observe) invokes registered hooks with
each cycle's report, letting deployments adapt parameters over time —
e.g. LinkedIn's transition from fixed to dynamic k.

One driver, :class:`CycleDriver`, runs that loop for every pipeline: a
plain :class:`AutoCompPipeline` is its one-shard inline case, and the
scale-out :class:`~repro.core.sharding.ShardedPipeline` spreads the
observe phase over N shards.

Every phase is deterministic given identical inputs (NFR2), and each
component is swappable (NFR1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.candidates import Candidate, CandidateKey
from repro.core.connectors import Connector
from repro.core.filters import CandidateFilter, apply_filters
from repro.core.ranking import RankingPolicy
from repro.core.scheduling import (
    CompactionTask,
    ExecutionBackend,
    ExecutionResult,
    Scheduler,
)
from repro.core.selection import Selector
from repro.core.traits import Trait, TraitRegistry
from repro.errors import ValidationError
from repro.obs.tracing import Tracer, make_span
from repro.simulation.simulator import Simulator
from repro.simulation.telemetry import BYTES_BOUNDS, Telemetry


@dataclass
class CycleReport:
    """What one OODA cycle saw, decided and did."""

    cycle_index: int
    started_at: float
    candidates_generated: int = 0
    after_stats_filters: int = 0
    after_trait_filters: int = 0
    ranked: int = 0
    #: Selected candidates withheld by act gates (admission quotas, lock
    #: contention) before execution.
    gated: int = 0
    selected: list[CandidateKey] = field(default_factory=list)
    #: Results land here synchronously, or asynchronously as simulated
    #: compaction jobs complete (the list object is shared with the
    #: scheduler's callback).
    results: list[ExecutionResult] = field(default_factory=list)

    @property
    def successes(self) -> int:
        """Completed compactions."""
        return sum(1 for r in self.results if r.success)

    @property
    def conflicts(self) -> int:
        """Cluster-side conflicts among results."""
        return sum(1 for r in self.results if not r.success and not r.skipped)

    @property
    def total_gbhr(self) -> float:
        """Compute spent (including wasted work on conflicted jobs)."""
        return sum(r.gbhr for r in self.results)

    @property
    def total_files_reduced(self) -> int:
        """Actual net file-count reduction achieved."""
        return sum(r.actual_reduction for r in self.results)


@dataclass
class ShardedCycleReport:
    """One cycle: the merged view plus per-shard detail."""

    #: Merged report (counts summed, selection in rank order, results
    #: shared with the act phase).
    report: CycleReport
    #: Per-shard reports (observation counts and each shard's share of the
    #: selection); with one shard, the merged report itself.
    shard_reports: list[CycleReport] = field(default_factory=list)
    #: Wall-clock seconds each shard spent in observe/orient.
    shard_observe_wall_s: list[float] = field(default_factory=list)
    #: Wall-clock seconds for the whole cycle.
    cycle_wall_s: float = 0.0

    @property
    def selected(self) -> list[CandidateKey]:
        """Merged selection (delegates to the merged report)."""
        return self.report.selected


class CycleDriver:
    """The one OODA cycle driver behind every pipeline.

    :meth:`_drive_cycle` runs generate → observe/orient → decide → act
    over ``self.shards`` and is the only place a cycle is instrumented and
    published: the ``cycle`` span and its ``observe``/``decide``/``act``
    phase spans, the ``autocomp.hist.{observe,decide,act,cycle}_wall_s``
    histograms, the ``autocomp.cycles``/``autocomp.cycle.*`` records, the
    ``cycle`` tap event and the feedback hooks — the last four fed the
    merged report, once per cycle.

    :class:`AutoCompPipeline` is the one-shard inline case: it is its own
    only shard.  With one shard the driver skips key assignment, the
    generation-order merge and the per-shard ``shard`` spans, and local
    selection collapses to global (one shard owns the whole budget).
    With more shards it calls the multi-shard hooks of
    :class:`~repro.core.sharding.ShardedPipeline` (``assign``,
    ``_shard_for``, ``_observe_shards``, ``_decide_local``).

    Every pipeline exposes the same surface: ``shards``, ``policy``,
    ``selector``, ``generation``, ``telemetry``, ``tracer``, ``taps``,
    ``feedback_hooks``, ``invalidate``, ``close`` and the context-manager
    protocol.
    """

    #: Decide placement and merge order (only the sharded plane varies them).
    selection = "global"
    merge_order = "generation"
    _cycle_index = 0

    @property
    def n_shards(self) -> int:
        """Number of shards (1 for a plain pipeline)."""
        return len(self.shards)

    def begin_cycle(self, now: float) -> CycleReport:
        """Allocate the next cycle's report (advances the cycle index)."""
        report = CycleReport(cycle_index=self._cycle_index, started_at=now)
        self._cycle_index += 1
        return report

    def close(self, timeout: float | None = None) -> None:
        """Release execution resources (idempotent); inline pipelines hold none."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _drive_cycle(
        self, now: float, simulator: Simulator | None
    ) -> ShardedCycleReport:
        """Run one OODA pass: the merged report plus per-shard detail."""
        if simulator is not None:
            now = simulator.now
        wall_start = time.perf_counter()
        sharded = len(self.shards) > 1
        tracer = self.tracer
        telemetry = self.telemetry
        report = self.begin_cycle(now)

        def phase(name: str, histogram: str, work: Callable, **attrs):
            start = time.perf_counter()
            try:
                if tracer is None:
                    return work()
                with tracer.span(name, **attrs):
                    return work()
            finally:
                telemetry.observe(histogram, time.perf_counter() - start)

        cycle_span = None
        if tracer is not None:
            extra = {"shards": len(self.shards)} if sharded else {}
            cycle_span = tracer.begin("cycle", cycle_index=report.cycle_index, **extra)
        try:
            keys, shard_keys, shard_reports = self._generate(report, now)
            per_shard, observe_wall, decisions = phase(
                "observe",
                "autocomp.hist.observe_wall_s",
                lambda: self._observe(shard_keys, shard_reports, now),
                **({"mode": self.workers} if sharded else {}),
            )
            selected = phase(
                "decide",
                "autocomp.hist.decide_wall_s",
                lambda: self._decide(keys, per_shard, report, shard_reports, decisions),
            )
            phase(
                "act",
                "autocomp.hist.act_wall_s",
                lambda: self._act(selected, report, shard_reports, simulator),
            )
            cycle = ShardedCycleReport(
                report=report,
                shard_reports=shard_reports,
                shard_observe_wall_s=observe_wall,
                cycle_wall_s=time.perf_counter() - wall_start,
            )
            self._finish_cycle(cycle, now)
        finally:
            telemetry.observe(
                "autocomp.hist.cycle_wall_s", time.perf_counter() - wall_start
            )
            if cycle_span is not None:
                tracer.end(cycle_span, selected=len(report.selected))
        return cycle

    # --- phases ----------------------------------------------------------------

    def _generate(self, report: CycleReport, now: float):
        """Candidate keys, each shard's slice of them, and the shard reports."""
        shards = self.shards
        if len(shards) == 1:
            keys = shards[0].connector.list_candidates(self.generation)
            report.candidates_generated = len(keys)
            return keys, [keys], [report]
        if self.merge_order == "any":
            # Order-insensitive merging lets each shard list its own
            # consistent-hash slice directly (vectorised where the
            # connector supports it).
            keys: list[CandidateKey] = []
            shard_keys = [
                shard.connector.list_candidates_sharded(
                    self.generation, len(shards), shard_index
                )
                for shard_index, shard in enumerate(shards)
            ]
            report.candidates_generated = sum(len(s) for s in shard_keys)
        else:
            # List once and partition, keeping generation order for the merge.
            keys = shards[0].connector.list_candidates(self.generation)
            report.candidates_generated = len(keys)
            shard_keys = self.assign(keys)
        shard_reports = [shard.begin_cycle(now) for shard in shards]
        for shard_report, subset in zip(shard_reports, shard_keys):
            shard_report.candidates_generated = len(subset)
        return keys, shard_keys, shard_reports

    def _observe(self, shard_keys, shard_reports, now: float):
        """Observe + orient: inline for one shard, else across the shards.

        Returns per-shard survivors, per-shard observe walls and per-shard
        worker decisions (None where the coordinator decides).
        """
        if len(self.shards) > 1:
            return self._observe_shards(shard_keys, shard_reports, now)
        start = time.perf_counter()
        candidates = self.shards[0].observe_orient(shard_keys[0], now, shard_reports[0])
        return [candidates], [time.perf_counter() - start], [None]

    def _decide(self, keys, per_shard, report, shard_reports, decisions):
        """Decide: rank and select once over the (merged) survivors."""
        if len(per_shard) > 1:
            if self.selection == "local":
                return self._decide_local(per_shard, report, shard_reports, decisions)
            merged = self._merge(keys, per_shard)
            report.after_stats_filters = sum(r.after_stats_filters for r in shard_reports)
            report.after_trait_filters = len(merged)
        else:
            merged = per_shard[0]
        ranked = self.policy.rank(merged)
        report.ranked = len(ranked)
        selected = self.selector.select(ranked)
        report.selected = [c.key for c in selected]
        if len(per_shard) > 1:
            for shard_index, shard_report in enumerate(shard_reports):
                shard_report.ranked = len(per_shard[shard_index])
                shard_report.selected = [
                    key for key in report.selected if self._shard_for(key) == shard_index
                ]
        return selected

    def _merge(self, keys, per_shard: list[list[Candidate]]) -> list[Candidate]:
        """Concatenate shard survivors, or rebuild generation order."""
        if self.merge_order == "any":
            return [c for candidates in per_shard for c in candidates]
        # Rebuild generation order, id-keyed within one cycle (every key
        # object is alive for the whole merge) to avoid a Python-level
        # content hash per dict operation.
        by_key: dict[int, Candidate] = {}
        total = 0
        for candidates in per_shard:
            total += len(candidates)
            for candidate in candidates:
                by_key[id(candidate.key)] = candidate
        lookup = by_key.get
        merged = [c for c in (lookup(id(key)) for key in keys) if c is not None]
        if len(merged) != total:
            # A connector returned candidates under fresh key objects;
            # fall back to content-keyed merging.
            by_content = {c.key: c for candidates in per_shard for c in candidates}
            merged = [c for c in (by_content.get(key) for key in keys) if c is not None]
        return merged

    def _act(self, selected, report, shard_reports, simulator) -> None:
        """Act: one deterministic pass in rank order, or one per shard."""
        shards = self.shards
        if len(shards) > 1 and self.selection == "local":
            for shard, shard_report, chosen in zip(shards, shard_reports, selected):
                shard.act(
                    chosen, shard_report, simulator=simulator, on_result=report.results.append
                )
            return
        on_result = None
        if len(shards) > 1:

            def on_result(result: ExecutionResult) -> None:
                # The act pass runs through shard 0, whose pipeline evicts
                # its own connector's cache; mirror the eviction to the
                # shard that actually owns (observes) the compacted key.
                if result.success:
                    owner = self._shard_for(result.candidate)
                    if owner != 0:
                        shards[owner].connector.invalidate(result.candidate)

        # Shards partition the observation work, not the executor.
        shards[0].act(selected, report, simulator=simulator, on_result=on_result)

    def _finish_cycle(self, cycle: ShardedCycleReport, now: float) -> None:
        """Record the cycle, publish its ``cycle`` event, fire feedback hooks."""
        report = cycle.report
        self.telemetry.record("autocomp.cycle.candidates", now, report.candidates_generated)
        self.telemetry.record("autocomp.cycle.selected", now, len(report.selected))
        self.telemetry.increment("autocomp.cycles")
        self._record_shards(cycle, now)
        if self.taps is not None and self.taps.has_subscribers("cycle"):
            # Imported lazily: repro.replay sits above repro.core in the
            # layering, so a module-level import would be circular.
            from repro.replay.trace import serialize_cycle_report

            # Callers that never pass `now` (it defaults to 0.0) must not
            # stamp a cycle event *before* the commits already recorded at
            # catalog-clock time — that trace would fail the reader's
            # non-decreasing-time validation.  The connector's clock, when
            # it has one, is the authoritative floor.
            catalog = getattr(self.shards[0].connector, "catalog", None)
            t = now if catalog is None else max(now, catalog.clock.now)
            self.taps.publish("cycle", {"t": t, "report": serialize_cycle_report(report)})
        for hook in self.feedback_hooks:
            hook(report)

    def _record_shards(self, cycle: ShardedCycleReport, now: float) -> None:
        """Per-shard telemetry; only the sharded plane records any."""


class AutoCompPipeline(CycleDriver):
    """A configured AutoComp instance.

    Args:
        connector: platform adapter (candidates + statistics).
        backend: act-phase executor.
        traits: orient-phase traits (list or registry).
        policy: decide-phase ranking policy.
        selector: decide-phase budget selection.
        scheduler: act-phase ordering/concurrency.
        generation: candidate-generation strategy
            (``table`` / ``partition`` / ``hybrid``).
        stats_filters: filters applied after observe.
        trait_filters: filters applied after orient.
        telemetry: metric sink for cycle statistics.
        tracer: optional :class:`repro.obs.tracing.Tracer`; when set, each
            ``run_cycle`` produces a ``cycle → observe/decide/act →
            rewrite`` span tree and per-phase wall-clock histograms.  Also
            assignable after construction (``pipeline.tracer = Tracer()``).
        feedback_hooks: callables invoked with each finished
            :class:`CycleReport` (the optional act→observe loop).
        taps: optional event bus; when set, every finished cycle publishes
            a ``cycle`` event carrying the fully serialized report — the
            Policy Lab's catalog-trace cadence marker.  Assignable after
            construction too (``pipeline.taps = bus``).

    As a shard of a :class:`~repro.core.sharding.ShardedPipeline`, only the
    phase methods run (:meth:`observe_orient`, :meth:`orient`,
    :meth:`act`); the plane's own ``tracer``, ``taps`` and
    ``feedback_hooks`` instrument and publish the merged cycle.
    """

    def __init__(
        self,
        connector: Connector,
        backend: ExecutionBackend,
        traits: TraitRegistry | Sequence[Trait],
        policy: RankingPolicy,
        selector: Selector,
        scheduler: Scheduler,
        generation: str = "table",
        stats_filters: Sequence[CandidateFilter] = (),
        trait_filters: Sequence[CandidateFilter] = (),
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
        feedback_hooks: Sequence[Callable[[CycleReport], None]] = (),
        taps=None,
    ) -> None:
        self.connector = connector
        self.backend = backend
        self.traits = (
            traits if isinstance(traits, TraitRegistry) else TraitRegistry(list(traits))
        )
        self.policy = policy
        self.selector = selector
        self.scheduler = scheduler
        self.generation = validate_generation_strategy(generation)
        self.stats_filters = list(stats_filters)
        self.trait_filters = list(trait_filters)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer
        self.feedback_hooks = list(feedback_hooks)
        self.taps = taps
        #: Act gates: callables ``gate(selected) -> selected`` applied in
        #: order between decide and act.  The daemonized control plane
        #: installs admission quotas and per-table lock acquisition here,
        #: so concurrent cycles agree on who executes what *after* ranking
        #: but *before* any task is built.
        self.act_gates: list[Callable[[list[Candidate]], list[Candidate]]] = []

    @property
    def shards(self) -> list[AutoCompPipeline]:
        """A plain pipeline is its own only shard."""
        return [self]

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: forward a notification to the connector's cache.

        The uniform entry point service inboxes call — the sharded plane
        overrides it to route each key to the shard that owns it.
        """
        self.connector.invalidate(key)

    def run_cycle(self, now: float = 0.0, simulator: Simulator | None = None) -> CycleReport:
        """Run one full OODA pass.

        Args:
            now: current time for filters and reporting; ignored when a
                simulator is given (its clock wins).
            simulator: when provided, act-phase jobs are scheduled as
                simulated events and the report's ``results`` list fills in
                as they complete.

        Returns:
            The cycle's :class:`CycleReport`.
        """
        return self._drive_cycle(now, simulator).report

    # --- phases ----------------------------------------------------------------
    #
    # The cycle driver composes these for this pipeline alone, or for every
    # shard of a :class:`~repro.core.sharding.ShardedPipeline` — which runs
    # the observe/orient phases of many shards concurrently before one
    # fleet-level decide phase.

    def worker_transport(self, kind: str | None = None):
        """This pipeline's :class:`~repro.core.transport.WorkerTransport`.

        Delegates to
        :meth:`~repro.core.connectors.Connector.worker_transport`.  The
        sharded control plane builds each shard's transport through this
        hook (rather than reaching into the connector directly), so
        pipeline subclasses can interpose on how their shard's work
        crosses the process boundary.
        """
        return self.connector.worker_transport(kind)

    def observe_orient(
        self, keys: list[CandidateKey], now: float, report: CycleReport | None = None
    ) -> list[Candidate]:
        """Observe + orient phases: statistics, filters, traits, filters.

        Pure with respect to pipeline state (only the connector's stats
        cache may be updated), so disjoint key subsets can be processed
        concurrently by different shards.
        """
        candidates = self.connector.observe(keys)
        return self.orient(
            candidates, now, report, only_missing=self.connector.reuses_candidates
        )

    def orient(
        self,
        candidates: list[Candidate],
        now: float,
        report: CycleReport | None = None,
        only_missing: bool = True,
    ) -> list[Candidate]:
        """Orient phase over already observed candidates: filter, annotate, filter.

        Split out of :meth:`observe_orient` for callers that observe
        elsewhere — the process-mode sharded control plane receives
        observed *and* trait-annotated candidates back from shard workers
        and only needs the filter passes here (``only_missing=True`` then
        skips the already-annotated candidates).
        """
        candidates = apply_filters(self.stats_filters, candidates, now)
        if report is not None:
            report.after_stats_filters = len(candidates)
        self.traits.annotate_all(candidates, only_missing=only_missing)
        candidates = apply_filters(self.trait_filters, candidates, now)
        if report is not None:
            report.after_trait_filters = len(candidates)
        return candidates

    def act(
        self,
        selected: Sequence[Candidate],
        report: CycleReport,
        simulator: Simulator | None = None,
        on_result: Callable[[ExecutionResult], None] | None = None,
    ) -> None:
        """Act phase: hand the selected candidates to the scheduler.

        Args:
            selected: candidates in execution order.
            report: results are appended here (synchronously, or as
                simulated jobs complete).
            simulator: event-driven mode when given.
            on_result: extra observer for each result (the sharded control
                plane uses it to mirror results into the fleet report).
        """
        selected = list(selected)
        for gate in self.act_gates:
            before = len(selected)
            selected = list(gate(selected))
            dropped = before - len(selected)
            report.gated += dropped
            if dropped:
                self.telemetry.increment("autocomp.act.gated", dropped)
        tasks = [CompactionTask.from_candidate(c) for c in selected]

        def record(result: ExecutionResult) -> None:
            report.results.append(result)
            self._record_result(result)
            if result.success:
                # A compaction rewrites the table: evict its cached
                # statistics so the next observe phase sees the new state
                # (token-based caches self-heal; event-based ones need this).
                self.connector.invalidate(result.candidate)
            if on_result is not None:
                on_result(result)

        backend = self.backend
        if self.tracer is not None and tasks:
            # Wrap the backend so every prepared job carries a "rewrite"
            # span from start() to finish(), parented under the act span
            # (or whatever is current when the tasks are handed over).
            backend = _TracedBackend(backend, self.tracer, self.tracer.current())
        sync_results = self.scheduler.schedule(
            tasks, backend, simulator=simulator, on_result=record
        )
        # Sync mode returns results directly; ``record`` already captured them.
        del sync_results

    # --- telemetry -------------------------------------------------------------

    def _record_result(self, result: ExecutionResult) -> None:
        if result.skipped:
            self.telemetry.increment("autocomp.results.skipped")
        elif result.success:
            self.telemetry.increment("autocomp.results.success")
            self.telemetry.record(
                "autocomp.files_reduced", result.finished_at, result.actual_reduction
            )
            self.telemetry.record("autocomp.gbhr", result.finished_at, result.gbhr)
            self.telemetry.observe(
                "autocomp.hist.rewrite_bytes",
                result.rewritten_bytes,
                bounds=BYTES_BOUNDS,
            )
        else:
            self.telemetry.increment("autocomp.results.conflict")


class _TracedJob:
    """Wraps a :class:`~repro.core.scheduling.PreparedJob` in a rewrite span.

    Simulated jobs interleave, so the rewrite span never touches the
    tracer's thread-local stack: ``start()`` stamps the wall clock,
    ``finish()`` builds the :class:`~repro.obs.tracing.Span` in one shot
    (cheaper than begin/end for the per-job hot path — a cycle acts on
    many jobs) and hands it to :meth:`~repro.obs.tracing.Tracer.adopt`.
    """

    def __init__(self, job, task: CompactionTask, tracer: Tracer, parent) -> None:
        self._job = job
        self._task = task
        self._tracer = tracer
        self._parent = parent
        self._start_s = None

    def __getattr__(self, name):
        return getattr(self._job, name)

    def start(self):
        self._start_s = time.time()
        return self._job.start()

    def finish(self):
        result = self._job.finish()
        if self._start_s is not None:
            self._tracer.adopt([
                make_span(
                    "rewrite",
                    self._parent,
                    self._start_s,
                    time.time(),
                    key=str(self._task.candidate.key),
                    success=result.success,
                    skipped=result.skipped,
                    rewritten_bytes=result.rewritten_bytes,
                )
            ])
            self._start_s = None
        return result


class _TracedBackend:
    """Backend proxy that emits one ``rewrite`` span per executed job."""

    def __init__(self, backend: ExecutionBackend, tracer: Tracer, parent) -> None:
        self._backend = backend
        self._tracer = tracer
        self._parent = parent

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def prepare(self, task: CompactionTask):
        job = self._backend.prepare(task)
        if job is None:
            return None
        return _TracedJob(job, task, self._tracer, self._parent)


def validate_generation_strategy(strategy: str) -> str:
    """Validate a generation-strategy name, returning it unchanged."""
    from repro.core.candidates import GENERATION_STRATEGIES

    if strategy not in GENERATION_STRATEGIES:
        raise ValidationError(
            f"unknown generation strategy {strategy!r}; expected one of "
            f"{GENERATION_STRATEGIES}"
        )
    return strategy
