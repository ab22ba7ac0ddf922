#!/usr/bin/env python3
"""Extending AutoComp with custom traits, filters and policies (NFR1).

The paper's framework is deliberately modular: traits, filters, ranking
policies, selectors and schedulers are all small strategy objects.  This
example adds, without touching framework code:

* a *workload-aware* trait reading a custom access-frequency statistic
  (the §8 "Workload Awareness" future direction);
* a filter that protects write-hot tables from risky compaction;
* a three-objective ranking policy that weighs access frequency alongside
  the paper's benefit/cost pair.

Run:  python examples/custom_strategy.py
"""

from repro import Catalog, Cluster, EngineSession, Schema, WeightedSumPolicy
from repro.core import (
    AutoCompPipeline,
    CandidateFilter,
    LstConnector,
    LstExecutionBackend,
    Objective,
    SequentialScheduler,
    TopKSelector,
)
from repro.core.candidates import CandidateKey, CandidateStatistics
from repro.core.traits import ComputeCostTrait, FileCountReductionTrait, Trait, BENEFIT
from repro.engine import MisconfiguredShuffleWriter
from repro.lst import Field
from repro.units import GiB, MiB


class AccessFrequencyTrait(Trait):
    """Benefit trait: queries/hour hitting the candidate.

    Hot tables gain more from compaction because every query pays the
    small-file tax.  The value comes from the connector's ``custom``
    statistics, showing how platform-specific signals flow through the
    standardized statistics layout (§4.1).
    """

    name = "access_frequency"
    direction = BENEFIT

    def compute(self, statistics: CandidateStatistics) -> float:
        return statistics.custom.get("access_frequency", 0.0)


class WriteHotTableFilter(CandidateFilter):
    """Drop candidates with very recent write activity (conflict shield)."""

    name = "write_hot"

    def __init__(self, quiet_s: float) -> None:
        self.quiet_s = quiet_s

    def keep(self, candidate, now):
        stats = candidate.statistics
        return stats is not None and now - stats.last_modified_at >= self.quiet_s


class WorkloadAwareConnector(LstConnector):
    """LstConnector + an access-frequency side channel.

    A real deployment would read query logs; here the workload registers
    its per-table access rates explicitly.  ``build_statistics`` is the one
    hook every observation miss goes through, so the signal reaches the
    pipeline's observe phase (and single-key reads) alike.
    """

    def __init__(self, catalog, access_rates):
        super().__init__(catalog)
        self.access_rates = access_rates

    def build_statistics(self, key: CandidateKey) -> CandidateStatistics:
        base = super().build_statistics(key)
        custom = dict(base.custom)
        custom["access_frequency"] = self.access_rates.get(key.qualified_table, 0.0)
        from dataclasses import replace

        return replace(base, custom=custom)


def main() -> None:
    catalog = Catalog()
    catalog.create_database("db")
    schema = Schema.of(Field("id", "long"), Field("v", "string"))
    session = EngineSession(
        Cluster("q", executors=8), telemetry=catalog.telemetry, clock=catalog.clock, seed=3
    )
    writer = MisconfiguredShuffleWriter(num_partitions=32)

    # Two equally fragmented tables; 'dashboard' is queried 50x more often.
    for name in ("dashboard", "archive"):
        table = catalog.create_table(f"db.{name}", schema)
        session.write(table, 128 * MiB, writer)
    access_rates = {"db.dashboard": 100.0, "db.archive": 2.0}

    connector = WorkloadAwareConnector(catalog, access_rates)
    backend = LstExecutionBackend(connector, Cluster("maint", executors=2))
    pipeline = AutoCompPipeline(
        connector=connector,
        backend=backend,
        traits=[
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=128.0, rewrite_bytes_per_hour=1 * GiB),
            AccessFrequencyTrait(),
        ],
        policy=WeightedSumPolicy(
            [
                Objective("file_count_reduction", 0.4, maximize=True),
                Objective("access_frequency", 0.4, maximize=True),
                Objective("compute_cost_gbhr", 0.2, maximize=False),
            ]
        ),
        selector=TopKSelector(1),  # budget for exactly one compaction
        scheduler=SequentialScheduler(),
        stats_filters=[WriteHotTableFilter(quiet_s=0.0)],
        telemetry=catalog.telemetry,
    )

    report = pipeline.run_cycle(now=catalog.clock.now)
    print("Workload-aware ranking with budget for ONE compaction:")
    print(f"  candidates : {report.candidates_generated}")
    print(f"  selected   : {[str(k) for k in report.selected]}")
    print(f"  files freed: {report.total_files_reduced}")
    chosen = str(report.selected[0])
    assert chosen == "db.dashboard", "hot table should win the budget"
    print("\nThe hot dashboard table won the slot — the archive table, with "
          "identical fragmentation, waits for a future cycle.")


if __name__ == "__main__":
    main()
