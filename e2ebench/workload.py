"""One workload run of the end-to-end benchmark, in its own interpreter.

``run.py`` starts this script once per run, so set-up time and peak RSS
belong to one workload alone and the ``resource_tracker`` warnings the
run leaves on stderr can be counted by the parent.  The script builds a
seeded LST catalog, wires an :class:`~repro.core.daemon.AutoCompDaemon`
around it and drives the daemon itself — ``backfill()`` once, then one
``run_once()`` per tick — as a closed loop with one client on the
simulated clock.  It prints one JSON object with the raw measurements and
the outcome of its correctness checks as the last line of stdout.

Run order::

    set-up (catalog build, daemon wiring, first cold cycle) x ``--setups``
    backfill over the hybrid-scope keys of a fixed set of tables
    warm-up ticks
    timed ticks: append commits -> clock +5 min -> run_once -> reads

With ``--trace 1`` the layer functions are wrapped by a :class:`Ledger`
and the spans are summarised into per-layer metrics at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from inputs import Inputs, Shape  # noqa: E402
from ledger import Ledger, counters, instrument, summarise  # noqa: E402

from repro.catalog import Catalog  # noqa: E402
from repro.core import (  # noqa: E402
    AdmissionController,
    AutoCompDaemon,
    AutoCompService,
    IndexedCandidateCache,
    LockManager,
    openhouse_pipeline,
    openhouse_sharded_pipeline,
    verify_audit,
)
from repro.engine import Cluster, EngineSession  # noqa: E402
from repro.errors import CommitConflictError  # noqa: E402
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.units import DAY  # noqa: E402

#: Simulated seconds between daemon cycles.
TICK_S = 300.0


@dataclass(frozen=True)
class Workload:
    """How one workload is built and how long it runs."""

    shape: Shape
    #: ``"inline"`` (unsharded pipeline) or ``"processes"`` (sharded).
    pipeline: str
    #: The backfill phase compacts the hybrid-scope keys of the tables
    #: with popularity rank below this.
    backfill_tables: int
    #: ``write_amplification`` base: ``"ingest"`` or ``"initial"`` bytes.
    amplification_base: str
    #: Timed ticks per second of ``--seconds``.  The run length is a
    #: fixed amount of work, so decision counts repeat exactly; at 15
    #: seconds the timed ticks take about that long on a 2-vCPU VM.
    #: Cheap ticks get more of them, so that their timings are sampled
    #: over as long a stretch of wall time as the costly ones.
    ticks_per_second: float = 100 / 15


#: The catalog and streams shared by the two ingest workloads.
INGEST_SHAPE = Shape(
    tables=1000,
    databases=4,
    partitioned_share=0.25,
    initial_files=24,
    commits_per_tick=200,
    reads_per_tick=40,
)

WORKLOADS = {
    # Unsharded: observe walks every live file on the coordinator.
    "steady_ingest": Workload(
        shape=INGEST_SHAPE,
        pipeline="inline",
        backfill_tables=100,
        amplification_base="ingest",
    ),
    # Same inputs through process workers, the stats cache and the exporter.
    "sharded_processes": Workload(
        shape=INGEST_SHAPE,
        pipeline="processes",
        backfill_tables=100,
        amplification_base="ingest",
    ),
    # Half the tables partitioned, every hybrid-scope key backfilled; the
    # ticks after it carry light ingest over the drained catalog.
    "backfill_drain": Workload(
        shape=Shape(
            tables=800,
            databases=4,
            partitioned_share=0.5,
            initial_files=30,
            commits_per_tick=30,
            reads_per_tick=20,
        ),
        pipeline="inline",
        backfill_tables=800,
        amplification_base="initial",
        ticks_per_second=200 / 15,
    ),
}

#: Fewest timed cycles: p90 then has at least ten cycles beyond it.
MIN_TIMED_TICKS = 100
#: Untimed ticks between the backfill and the timed ticks.
WARMUP_TICKS = 10
#: Top-k per cycle, and the admission quota per database per cycle.
TOP_K = 10
MAX_PER_DATABASE = 4

SCHEMA = Schema.of(Field("id", "long"), Field("event_date", "date"))
MONTHLY = PartitionSpec.of(PartitionField("event_date", MonthTransform()))


class LagProbe:
    """Commit hook: ingest time per file id, and its lag to the ``replace`` removing it.

    Installed on every table in both the traced and the untraced run.
    Only files ingested while :attr:`active` count.
    """

    def __init__(self) -> None:
        self.active = False
        self.born: dict[tuple[int, int], float] = {}
        self.lags_s: list[float] = []

    def __call__(self, table, operation, added_data, added_deletes, removed_ids) -> None:
        now = table.clock.now
        tid = id(table)
        if operation == "append":
            if self.active:
                for data_file in added_data:
                    self.born[(tid, data_file.file_id)] = now
        elif operation == "replace":
            born = self.born
            for file_id in removed_ids:
                start = born.pop((tid, file_id), None)
                if start is not None:
                    self.lags_s.append(now - start)

    def lags_until(self, end: float) -> list[float]:
        """Every lag, counting files still live as lagging until ``end``."""
        return self.lags_s + [end - start for start in self.born.values()]


class System:
    """The program under test, wired the way one workload deploys it."""

    def __init__(self, workload: Workload, inputs: Inputs, scratch: str, traced: bool):
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.lag = LagProbe()
        self.catalog = Catalog()
        for index in range(workload.shape.databases):
            self.catalog.create_database(f"db{index}")
        self.tables = []
        initial_bytes = 0
        for spec in inputs.tables:
            table = self.catalog.create_table(
                spec.qualified, SCHEMA, spec=MONTHLY if spec.partitioned else None
            )
            txn = table.new_append()
            for partition, size in spec.files:
                txn.add_file(size, partition=partition)
            txn.commit()
            initial_bytes += sum(size for _, size in spec.files)
            table.commit_hooks.append(self.lag)
            self.tables.append(table)
        self.initial_bytes = initial_bytes
        self.ingested_bytes = 0
        # The tables have existed for a day when the daemon first looks.
        self.catalog.clock.advance_by(DAY)

        cluster = Cluster("maint", executors=2)
        options = dict(k=TOP_K, generation="table")
        self.tracer = None
        if workload.pipeline == "processes":
            self.tracer = Tracer()
            pipeline = openhouse_sharded_pipeline(
                self.catalog,
                cluster,
                workers="processes",
                max_workers=2,
                selection="local",
                stats_cache=IndexedCandidateCache(),
                **options,
            )
        else:
            pipeline = openhouse_pipeline(self.catalog, cluster, **options)
        self.pipeline = pipeline
        shards = getattr(pipeline, "shards", None)
        self.connector = shards[0].connector if shards else pipeline.connector
        self.service = AutoCompService(pipeline)
        self.locks = LockManager(os.path.join(scratch, "locks"))
        self.admission = AdmissionController(max_per_database=MAX_PER_DATABASE)
        self.daemon = AutoCompDaemon(
            self.service,
            self.locks,
            admission=self.admission,
            tracer=self.tracer,
            obs_dir=os.path.join(scratch, "obs") if self.tracer is not None else None,
        )
        self.session = EngineSession(Cluster("query", executors=4), clock=self.catalog.clock)
        self.ledger = Ledger() if traced else None
        if self.ledger is not None:
            instrument(self.ledger, self)
        self.selections: list[list[str]] = []
        self.keys_observed: list[int] = []
        self.cycle_errors = 0
        self.conflicts = 0
        self.jobs = 0

    # --- the driven operations ------------------------------------------------

    def cycle(self) -> float:
        """One daemon cycle (plus the exporter flush where one runs); wall seconds."""
        start = time.perf_counter()
        report = self.daemon.run_once()
        if self.daemon.exporter is not None:
            self.daemon.exporter.export_once()
        wall = time.perf_counter() - start
        if report is None:
            self.cycle_errors += 1
            self.selections.append(["<cycle error>"])
            return wall
        merged = getattr(report, "report", report)
        self.selections.append([str(key) for key in merged.selected])
        self.keys_observed.append(merged.candidates_generated)
        self.jobs += len(merged.results)
        self.conflicts += merged.conflicts
        return wall

    def commit(self, table_index: int, files) -> tuple[float, int]:
        """One append commit; returns its wall seconds and the parent's live files."""
        table = self.tables[table_index]
        txn = table.new_append()
        for partition, size in files:
            txn.add_file(size, partition=partition)
        parent_files = table.data_file_count
        start = time.perf_counter()
        txn.commit()
        wall = time.perf_counter() - start
        self.ingested_bytes += sum(size for _, size in files)
        return wall, parent_files

    def read(self, table_index: int) -> tuple[float, int]:
        """One full-table read; returns its wall seconds and files scanned."""
        table = self.tables[table_index]
        start = time.perf_counter()
        result = self.session.execute_read([(table, None)])
        return time.perf_counter() - start, result.files_scanned

    def backfill_keys(self) -> list:
        wanted = {
            spec.qualified
            for spec in self.inputs.tables
            if spec.rank < self.workload.backfill_tables
        }
        return [
            key
            for key in self.connector.list_candidates("hybrid")
            if key.qualified_table in wanted
        ]

    def compaction_totals(self) -> dict[str, float]:
        telemetry = self.catalog.telemetry
        return {
            name: sum(telemetry.series(f"engine.compaction.{name}").values)
            for name in ("gbhr", "wasted_gbhr", "rewritten_bytes")
        }

    def audit_lines(self) -> int:
        try:
            with open(self.locks.audit_path, "rb") as stream:
                return stream.read().count(b"\n")
        except FileNotFoundError:
            return 0

    def live_files_per_table(self) -> float:
        return sum(table.data_file_count for table in self.tables) / len(self.tables)

    def live_bytes(self) -> int:
        return sum(table.total_data_bytes for table in self.tables)

    def close(self) -> None:
        close = getattr(self.pipeline, "close", None)
        if close is not None:
            close(timeout=30.0)
        self.locks.close()


def run(name: str, seed: int, seconds: int, traced: bool, setups: int, scratch: str) -> dict:
    workload = WORKLOADS[name]
    inputs = Inputs(workload.shape, seed)
    timed_ticks = max(MIN_TIMED_TICKS, round(seconds * workload.ticks_per_second))

    # Set-up, repeated; every repetition but the last is torn down again.
    setup_walls = []
    system = None
    for attempt in range(setups):
        if system is not None:
            system.close()
            system = None
        start = time.perf_counter()
        system = System(
            workload, inputs, os.path.join(scratch, f"setup{attempt}"), traced
        )
        system.cycle()  # cold cycle: starts worker pools, fills caches
        setup_walls.append(time.perf_counter() - start)
    ledger = system.ledger
    totals_before = system.compaction_totals()
    failed_commits = 0

    # Backfill phase.
    keys = system.backfill_keys()
    if ledger is not None:
        ledger.start(counters(system))
    audit_lines = [system.audit_lines()]
    # The unit hook stamps each unit as it finishes; the gaps between
    # stamps are per-unit walls, whose median is steadier than the whole
    # call's wall.
    unit_marks: list[float] = []
    counts = system.daemon.backfill(
        keys,
        os.path.join(system.scratch, "backfill"),
        unit_hook=lambda unit: unit_marks.append(time.perf_counter()),
    )
    audit_lines.append(system.audit_lines())

    # Tick phase.
    clock = system.catalog.clock
    cycle_walls, commit_walls, commit_parents, read_walls, read_files = [], [], [], [], []
    for tick in range(WARMUP_TICKS + timed_ticks):
        timed = tick >= WARMUP_TICKS
        system.lag.active = timed
        commits = inputs.ingest(tick)
        tick_start = clock.now
        for offset, table_index, files in commits:
            clock.advance_to(tick_start + offset * TICK_S)
            try:
                wall, parent = system.commit(table_index, files)
            except CommitConflictError:  # a failed op, counted, not a crash
                failed_commits += 1
                continue
            if timed:
                commit_walls.append(wall)
                commit_parents.append(parent)
        clock.advance_to(tick_start + TICK_S)
        wall = system.cycle()
        if timed:
            cycle_walls.append(wall)
        for table_index in inputs.reads(tick):
            wall, files = system.read(table_index)
            if timed:
                read_walls.append(wall)
                read_files.append(files)
    end_time = clock.now
    if ledger is not None:
        ledger.stop()
    audit_lines.append(system.audit_lines())

    totals_after = system.compaction_totals()
    rewritten = totals_after["rewritten_bytes"] - totals_before["rewritten_bytes"]
    base = system.initial_bytes if workload.amplification_base == "initial" else (
        system.ingested_bytes
    )
    audit = verify_audit(system.locks.lock_dir)
    lags_min = [lag / 60.0 for lag in system.lag.lags_until(end_time)]
    ticks_run = WARMUP_TICKS + timed_ticks
    reads_run = ticks_run * workload.shape.reads_per_tick
    commits_run = ticks_run * workload.shape.commits_per_tick
    units_failed = len(keys) - counts["COMPLETE"]
    checks = {
        "bytes_conserved": system.live_bytes()
        == system.initial_bytes + system.ingested_bytes,
        "audit_ok": audit.ok,
        "backfill_complete": units_failed == 0,
        "no_cycle_errors": system.cycle_errors == 0,
    }
    result = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "checks": checks,
        "audit_violations": audit.violations[:5],
        "attempted": commits_run + ticks_run + 1 + system.jobs + len(keys) + reads_run,
        "failed": failed_commits + system.cycle_errors + system.conflicts + units_failed,
        "selections": system.selections,
        "setup_s": statistics.median(setup_walls),
        "cycle_walls_s": cycle_walls,
        "commit_walls_s": commit_walls,
        "read_walls_s": read_walls,
        "backfill_unit_walls_s": [b - a for a, b in zip(unit_marks, unit_marks[1:])],
        "backfill_units": counts["COMPLETE"],
        "files_per_query": statistics.fmean(read_files),
        "commit_live_files": statistics.fmean(commit_parents),
        "live_files_per_table": system.live_files_per_table(),
        "compaction_lag_min_p50": statistics.median(lags_min),
        "compaction_gbhr": (totals_after["gbhr"] + totals_after["wasted_gbhr"])
        - (totals_before["gbhr"] + totals_before["wasted_gbhr"]),
        "write_amplification": rewritten / base,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycles": len(cycle_walls),
    }
    if ledger is not None:
        layers = summarise(ledger, system, units=counts["COMPLETE"])
        layers["locks.audit_lines_per_unit"] = (audit_lines[1] - audit_lines[0]) / max(
            counts["COMPLETE"], 1
        )
        layers["locks.audit_lines"] = (audit_lines[2] - audit_lines[1]) / ticks_run
        result["ledger"] = layers
    system.close()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.scratch, exist_ok=True)
    try:
        result = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            max(args.setups, 1),
            args.scratch,
        )
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
