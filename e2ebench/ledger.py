"""The per-layer ledger: spans recorded from outside the program.

A traced run wraps named public functions on the instances the benchmark
builds (:func:`instrument`).  Each wrapped call records a span — name,
start, end, parent, and the root span of the cycle or backfill it ran
in — in memory.  :func:`summarise` turns the spans into per-layer
metrics at the end of the run.  A span's self time is its duration minus
the part of it that its child spans cover.

Spans rooted in a daemon cycle are reported per cycle; spans rooted in
the backfill are reported per backfill unit, under ``*_per_unit`` names.
Worker-side compute is not wrapped here: it comes from the ``observe``
and ``decide`` spans the program's own tracer ships home from worker
processes.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.daemon import ResumableStateMachine

NAME, START, END, PARENT, ROOT, COUNT = range(6)

#: ResumableStateMachine methods that each write state files, with how
#: many files one call writes.
_STATE_WRITES = {
    "register": lambda result, args: result,
    "recover": lambda result, args: len(result),
    "get_next_chunk": lambda result, args: len(result),
    "mark_running": lambda result, args: 1,
    "mark_complete": lambda result, args: 1,
    "release": lambda result, args: 1,
}


class Ledger:
    """In-memory span store fed by wrappers around layer functions."""

    def __init__(self) -> None:
        self.active = False
        self.started_at = 0.0
        self.before: dict[str, int] = {}
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def start(self, before: dict[str, int]) -> None:
        """Start recording; ``before`` holds :func:`counters` at this point."""
        self.active = True
        self.started_at = time.time()
        self.before = before

    def stop(self) -> None:
        self.active = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a ``name`` span.

        ``count(result, args)``, when given, returns the work count the
        span carries (files returned, keys observed, ...).
        """
        original = getattr(owner, attr)
        ledger = self

        def wrapper(*args, **kwargs):
            if not ledger.active:
                return original(*args, **kwargs)
            stack = ledger._stack()
            parent = stack[-1] if stack else -1
            with ledger._lock:
                index = len(ledger.spans)
                root = ledger.spans[parent][ROOT] if parent >= 0 else index
                span = [name, 0.0, 0.0, parent, root, 0]
                ledger.spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result, args)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)


def _wrap_transport(ledger: Ledger, transport) -> None:
    def shipped(result, args):
        _, spec = result
        if spec is None:
            return 0
        snapshot = getattr(spec, "snapshot", None)
        return int(getattr(snapshot, "nbytes", 0) or 0)

    ledger.wrap(transport, "export", "transport.export", shipped)
    ledger.wrap(transport, "merge", "transport.merge")
    ledger.wrap(transport, "merge_decision", "transport.merge")


def instrument(ledger: Ledger, system) -> None:
    """Wrap every layer boundary of one built system."""
    pipeline = system.pipeline
    shards = getattr(pipeline, "shards", None) or [pipeline]
    sharded = len(shards) > 1
    head = shards[0]
    connector = head.connector

    ledger.wrap(system, "cycle", "cycle")
    ledger.wrap(system.daemon, "run_once", "daemon.run_once")
    ledger.wrap(system.daemon, "backfill", "backfill")
    ledger.wrap(system.catalog, "load_table", "catalog.load_table", lambda r, a: 1)
    ledger.wrap(system.catalog, "policy", "catalog.policy", lambda r, a: 1)
    ledger.wrap(connector, "list_candidates", "connectors.list_candidates")
    ledger.wrap(connector, "observe", "connectors.observe", lambda r, a: len(a[0]))
    ledger.wrap(connector, "files_for", "connectors.files_for", lambda r, a: len(r))
    ledger.wrap(connector, "collect_statistics", "connectors.collect_statistics")
    if not sharded:
        # Sharded planes pickle these into worker specs, and a wrapper
        # closure cannot be pickled; their cost there is worker compute.
        ledger.wrap(head.traits, "annotate_all", "traits.annotate", lambda r, a: len(a[0]))
        ledger.wrap(head.policy, "rank", "ranking.rank")
        ledger.wrap(head.selector, "select", "selection.select", lambda r, a: len(r))
    ledger.wrap(system.admission, "admit", "fairness.admit")
    ledger.wrap(system.locks, "acquire", "locks.acquire", lambda r, a: 0 if r else 1)
    ledger.wrap(system.locks, "release", "locks.release")
    ledger.wrap(head.scheduler, "schedule", "scheduling.schedule")

    def wrap_job(job, args):
        if job is not None:
            ledger.wrap(
                job, "finish", "engine.rewrite_commit", lambda r, a: r.rewritten_bytes
            )
        return 0

    ledger.wrap(head.backend, "prepare", "scheduling.prepare", wrap_job)
    if system.daemon.exporter is not None:
        ledger.wrap(system.daemon.exporter, "export_once", "obs.export")
    if sharded:
        ledger.wrap(pipeline, "assign", "sharding.assign")
        for shard in shards:
            original = shard.worker_transport

            def worker_transport(kind=None, _original=original):
                transport = _original(kind)
                _wrap_transport(ledger, transport)
                return transport

            shard.worker_transport = worker_transport
    for method, writes in _STATE_WRITES.items():
        if not hasattr(getattr(ResumableStateMachine, method), "__wrapped__"):
            ledger.wrap(ResumableStateMachine, method, "daemon.state_write", writes)


def counters(system) -> dict[str, int]:
    """Program counters the ledger reports as deltas over the traced window."""
    cache = system.connector.stats_cache
    snapshot = cache.counters_snapshot() if cache is not None else {"hits": 0, "misses": 0}
    return {
        "hits": snapshot["hits"],
        "misses": snapshot["misses"],
        "deferred": system.admission.deferred_total,
        "cycles": len(system.keys_observed),
    }


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out.append(max(span[END] - span[START] - covered, 0.0))
    return out


def _worker_ledger(tracer, since: float, cycles: int) -> dict[str, float]:
    """Worker compute and wait from the program's own tracer spans."""
    if tracer is None:
        return {"workers.compute_ms": 0.0, "workers.wait_ms": 0.0, "obs.spans_per_cycle": 0.0}
    spans = [span for span in tracer.finished() if span.start_s >= since]
    me = os.getpid()
    by_parent: dict[str, list] = {}
    for span in spans:
        if span.parent_id is not None:
            by_parent.setdefault(span.parent_id, []).append(span)
    compute = wait = 0.0
    for span in spans:
        if span.pid != me or span.name != "observe":
            continue
        # A coordinator-side observe phase: shard spans below it carry
        # pack/unpack children and the worker's own observe/decide spans.
        pack_unpack = slowest = 0.0
        for shard in by_parent.get(span.span_id, ()):
            worker = 0.0
            for child in by_parent.get(shard.span_id, ()):
                if child.pid != me and child.name in ("observe", "decide"):
                    worker += child.duration_s
                elif child.name in ("pack", "unpack"):
                    pack_unpack += child.duration_s
            compute += worker
            slowest = max(slowest, worker)
        wait += max(span.duration_s - pack_unpack - slowest, 0.0)
    return {
        "workers.compute_ms": compute * 1e3 / cycles,
        "workers.wait_ms": wait * 1e3 / cycles,
        "obs.spans_per_cycle": len(spans) / cycles,
    }


#: Per-cycle metrics: (metric, span name, "ms" self time or "count").
_CYCLE_METRICS = [
    ("catalog.load_table_calls", "catalog.load_table", "count"),
    ("catalog.load_table_ms", "catalog.load_table", "ms"),
    ("catalog.policy_calls", "catalog.policy", "count"),
    ("connectors.list_candidates_ms", "connectors.list_candidates", "ms"),
    ("connectors.observe_ms", "connectors.observe", "ms"),
    ("connectors.files_scanned", "connectors.files_for", "count"),
    ("traits.annotate_ms", "traits.annotate", "ms"),
    ("traits.candidates_annotated", "traits.annotate", "count"),
    ("ranking.rank_ms", "ranking.rank", "ms"),
    ("selection.select_ms", "selection.select", "ms"),
    ("selection.selected", "selection.select", "count"),
    ("fairness.admit_ms", "fairness.admit", "ms"),
    ("locks.acquire_ms", "locks.acquire", "ms"),
    ("locks.release_ms", "locks.release", "ms"),
    ("locks.contended", "locks.acquire", "count"),
    ("daemon.run_once_self_ms", "daemon.run_once", "ms"),
    ("scheduling.prepare_ms", "scheduling.prepare", "ms"),
    ("scheduling.schedule_ms", "scheduling.schedule", "ms"),
    ("engine.rewrite_commit_ms", "engine.rewrite_commit", "ms"),
    ("engine.rewritten_bytes", "engine.rewrite_commit", "count"),
    ("sharding.assign_ms", "sharding.assign", "ms"),
    ("transport.export_ms", "transport.export", "ms"),
    ("transport.merge_ms", "transport.merge", "ms"),
    ("transport.bytes_shipped", "transport.export", "count"),
    ("obs.export_ms", "obs.export", "ms"),
]

#: Per-backfill-unit metrics, same layout.
_UNIT_METRICS = [
    ("connectors.collect_statistics_ms_per_unit", "connectors.collect_statistics", "ms"),
    ("daemon.state_writes_per_unit", "daemon.state_write", "count"),
    ("daemon.state_write_ms_per_unit", "daemon.state_write", "ms"),
    ("locks.acquire_ms_per_unit", "locks.acquire", "ms"),
    ("locks.release_ms_per_unit", "locks.release", "ms"),
    ("scheduling.prepare_ms_per_unit", "scheduling.prepare", "ms"),
    ("engine.rewrite_commit_ms_per_unit", "engine.rewrite_commit", "ms"),
    ("engine.rewritten_bytes_per_unit", "engine.rewrite_commit", "count"),
    ("daemon.backfill_self_ms_per_unit", "backfill", "ms"),
]


def summarise(ledger: Ledger, system, units: int) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    spans = ledger.spans
    self_s = _self_times(spans)
    kind = {i: span[NAME] for i, span in enumerate(spans) if span[PARENT] < 0}
    cycles = sum(1 for name in kind.values() if name == "cycle")
    totals: dict[tuple[str, str], list[float]] = {}
    for index, span in enumerate(spans):
        root = kind.get(span[ROOT])
        entry = totals.setdefault((root, span[NAME]), [0.0, 0.0])
        entry[0] += self_s[index]
        entry[1] += span[COUNT]

    def metric(root: str, name: str, what: str, per: int) -> float:
        ms, count = totals.get((root, name), (0.0, 0.0))
        return (ms * 1e3 if what == "ms" else count) / max(per, 1)

    out = {m: metric("cycle", name, what, cycles) for m, name, what in _CYCLE_METRICS}
    out.update(
        {m: metric("backfill", name, what, units) for m, name, what in _UNIT_METRICS}
    )
    before, after = ledger.before, counters(system)
    delta = {name: after[name] - before[name] for name in after}
    per_cycle = max(cycles, 1)
    out["connectors.keys_observed"] = sum(system.keys_observed[before["cycles"] :]) / per_cycle
    lookups = delta["hits"] + delta["misses"]
    out["statscache.hits"] = delta["hits"] / per_cycle
    out["statscache.lookups"] = lookups / per_cycle
    out["statscache.hit_ratio"] = delta["hits"] / lookups if lookups else 0.0
    out["fairness.deferred"] = delta["deferred"] / per_cycle
    out.update(_worker_ledger(system.tracer, ledger.started_at, per_cycle))
    return out
