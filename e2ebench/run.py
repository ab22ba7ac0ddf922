"""End-to-end AutoComp benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload steady_ingest --seed 1 --seconds 15 --trace 0

Workloads are ``steady_ingest``, ``sharded_processes`` and
``backfill_drain`` (see ``workload.py``).  Each run starts ``workload.py``
in a fresh interpreter, so set-up time, peak RSS and the
``resource_tracker`` warnings on stderr belong to that workload alone.
With ``--trace 0`` it sets the system up three times (``setup_s`` is
their median) and prints the ``end_to_end`` metrics of ``BENCHMARK.json``.
With ``--trace 1`` it makes an untraced and a traced run of the same
seed, checks that both select the same keys in every cycle and end in
the same state, and prints the ``per_layer`` metrics of the traced run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock limit of one whole run, children included, in seconds.
RUN_TIMEOUT_S = 175

_LEAKED = re.compile(r"resource_tracker: There appear to be (\d+) leaked shared_memory")


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1-99) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``.

    Backfill units come in two kinds (table and partition scope) with
    different costs, so their median jumps between the kinds; the mean
    of the middle half weighs both kinds in their fixed proportion.
    """
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return statistics.fmean(middle)


def run_child(args, traced: bool, setups: int, deadline: float) -> tuple[dict, int]:
    """Run one workload child; returns its result and its leaked-segment count."""
    scratch = os.path.join(
        ROOT, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}-{int(traced)}"
    )
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(traced)),
        "--setups", str(setups),
        "--scratch", scratch,
    ]
    # A fixed hash seed takes string-hash randomisation (set and dict
    # layouts of file paths and keys) out of the run-to-run spread.
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # A session of its own, so a timeout can stop the child's worker
        # processes and resource tracker along with it.
        start_new_session=True,
    )
    try:
        # communicate() reads until every holder of the pipes has exited,
        # the child's resource tracker included.
        stdout, stderr = child.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it
    sys.stderr.write(stderr)
    if child.returncode != 0:
        raise RuntimeError(f"workload child exited with {child.returncode}")
    leaked = sum(int(n) for n in _LEAKED.findall(stderr))
    return json.loads(stdout.strip().splitlines()[-1]), leaked


def end_to_end(result: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    cycles = [s * 1e3 for s in result["cycle_walls_s"]]
    commits = [s * 1e6 for s in result["commit_walls_s"]]
    reads = [s * 1e6 for s in result["read_walls_s"]]
    return {
        "setup_s": result["setup_s"],
        "cycle_wall_ms.p50": percentile(cycles, 50),
        "cycle_wall_ms.p90": percentile(cycles, 90),
        "ingest_commit_us.p50": percentile(commits, 50),
        "ingest_commit_us.p99": percentile(commits, 99),
        "scan_plan_us.p50": percentile(reads, 50),
        "files_per_query": result["files_per_query"],
        "live_files_per_table": result["live_files_per_table"],
        "compaction_lag_min.p50": result["compaction_lag_min_p50"],
        "compaction_gbhr": result["compaction_gbhr"],
        "write_amplification": result["write_amplification"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict, leaked: int) -> dict[str, float]:
    """The per-layer ledger of a traced run, with the benchmark's own ratios."""
    metrics = dict(traced["ledger"])
    metrics["lst.commit_live_files"] = traced["commit_live_files"]
    metrics["lst.scan_files"] = traced["files_per_query"]
    metrics["workers.shm_tracker_warnings"] = leaked
    metrics["bench.trace_overhead_ratio"] = statistics.median(
        traced["cycle_walls_s"]
    ) / statistics.median(plain["cycle_walls_s"])
    metrics["bench.failed_op_ratio"] = traced["failed"] / traced["attempted"]
    # From the untraced run: wrappers would slow the units they time.
    metrics["daemon.backfill_units_per_s"] = 1.0 / interquartile_mean(
        plain["backfill_unit_walls_s"]
    )
    return metrics


def same_behaviour(plain: dict, traced: dict) -> list[str]:
    """Where a traced run diverged from the untraced run of the same seed."""
    problems = []
    if plain["selections"] != traced["selections"]:
        problems.append("the runs selected different keys")
    for field in ("live_files_per_table", "compaction_gbhr", "backfill_units"):
        if plain[field] != traced[field]:
            problems.append(f"{field}: {plain[field]} untraced vs {traced[field]} traced")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        declared = json.load(stream)["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    problems: list[str] = []
    if args.trace:
        plain, _ = run_child(args, traced=False, setups=1, deadline=deadline)
        result, leaked = run_child(args, traced=True, setups=1, deadline=deadline)
        problems += same_behaviour(plain, result)
        values = per_layer(plain, result, leaked)
        runs = [plain, result]
    else:
        result, _ = run_child(args, traced=False, setups=SETUPS, deadline=deadline)
        values = end_to_end(result)
        runs = [result]
    names = {metric["name"] for metric in declared}
    if names != set(values):
        raise RuntimeError(
            f"measured metrics do not match BENCHMARK.json: missing "
            f"{sorted(names - set(values))}, undeclared {sorted(set(values) - names)}"
        )
    for run in runs:
        problems += [name for name, ok in run["checks"].items() if not ok]
        problems += run["audit_violations"]
        if run["failed"]:
            problems.append(f"{run['failed']} failed operations")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in declared
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
