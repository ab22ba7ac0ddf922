"""repro.obs — the production observability plane.

The paper's §6 production story operates AutoComp through its Logs
Analytics metrics; this package is that surface for the reproduction:
structured spans (:mod:`repro.obs.tracing`), the Prometheus/JSONL exporter
(:mod:`repro.obs.exporter`), its strict CI checker
(:mod:`repro.obs.promcheck`), a stdlib HTTP status endpoint
(:mod:`repro.obs.http`) and the ``python -m repro.obs.status <dir>``
operator CLI (:mod:`repro.obs.status`).  Histogram/counter/series storage
itself lives in :class:`repro.simulation.telemetry.Telemetry` (re-exported
here), which is thread-safe and shared by every subsystem.

Metric-name registry
====================

:data:`METRICS` maps every well-known metric name to ``(kind, help)``.
The exporter uses it for ``# HELP`` text, and it is the single place to
discover what the stack emits.  Kinds: ``counter`` (monotonic), ``series``
(timestamped gauge samples), ``histogram`` (fixed-bucket distribution,
``autocomp.hist.*`` — histogram names are namespaced apart from series so
the Prometheus rendering never collides).

Per-shard scopes (``autocomp.shard00.…``) mirror the fleet-level names
under each shard's prefix and are intentionally not enumerated here.
"""

from __future__ import annotations

from repro.simulation.telemetry import (
    BYTES_BOUNDS,
    COUNT_BOUNDS,
    LATENCY_BOUNDS_S,
    RATIO_BOUNDS,
    Histogram,
    MetricSeries,
    ScopedTelemetry,
    Telemetry,
    exponential_bounds,
)

from repro.obs.exporter import MetricsExporter, prom_name, render_prometheus
from repro.obs.http import StatusServer
from repro.obs.promcheck import check_exposition
from repro.obs.status import format_status, load_status_dir
from repro.obs.tracing import Span, SpanContext, SpanRecorder, Tracer

#: Every well-known metric name → (kind, help text for the exporter).
METRICS: dict[str, tuple[str, str]] = {
    # --- cycle / pipeline counters -------------------------------------------
    "autocomp.cycles": ("counter", "Completed single-pipeline OODA cycles"),
    "autocomp.fleet.cycles": ("counter", "Completed sharded (fleet) cycles"),
    "autocomp.results.success": ("counter", "Compaction jobs that committed"),
    "autocomp.results.conflict": ("counter", "Compaction jobs lost to commit conflicts"),
    "autocomp.results.skipped": ("counter", "Compaction jobs skipped by the scheduler"),
    "autocomp.act.gated": ("counter", "Selected candidates dropped by act gates"),
    # --- daemon / service counters -------------------------------------------
    "autocomp.daemon.cycle_errors": ("counter", "Daemon cycles that raised and were survived"),
    "autocomp.daemon.lock_contended": ("counter", "Act-phase lock acquisitions that lost the race"),
    "autocomp.service.overlap_skips": ("counter", "Notification-triggered cycles skipped while one was in flight"),
    "autocomp.admission.admitted": ("counter", "Candidates admitted by the fairness controller"),
    "autocomp.admission.deferred": ("counter", "Candidates deferred by the fairness controller"),
    # --- policy-plane (promoter) counters / series ----------------------------
    "autocomp.promoter.shadow_evals": ("counter", "Shadow evaluations of the candidate pool"),
    "autocomp.promoter.promotions": ("counter", "Policy promotions committed (guard window opened)"),
    "autocomp.promoter.rollbacks": ("counter", "Guarded promotions rolled back on metric degradation"),
    "autocomp.promoter.guard_passes": ("counter", "Guard windows closed with the promoted policy confirmed"),
    "autocomp.promoter.holds": ("counter", "Promoter ticks that held the active policy (no clear winner / guard open)"),
    "autocomp.promoter.step_errors": ("counter", "Promoter ticks that raised and were survived"),
    "autocomp.promoter.active_version": ("series", "Active policy-store version over time"),
    # --- lock-manager counters (mirror the audit-log events) ------------------
    "autocomp.locks.acquire": ("counter", "Lock acquisitions (audit event: acquire)"),
    "autocomp.locks.release": ("counter", "Lock releases (audit event: release)"),
    "autocomp.locks.contend": ("counter", "Lock contentions (audit event: contend)"),
    "autocomp.locks.reclaim": ("counter", "Stale locks reclaimed (audit event: reclaim)"),
    "autocomp.locks.compact_commit": ("counter", "Compactions committed under a lock (audit event: compact_commit)"),
    # --- series (timestamped gauges) -----------------------------------------
    "autocomp.cycle.candidates": ("series", "Candidates observed per single-pipeline cycle"),
    "autocomp.cycle.selected": ("series", "Candidates selected per single-pipeline cycle"),
    "autocomp.fleet.candidates": ("series", "Candidates observed per fleet cycle"),
    "autocomp.fleet.selected": ("series", "Candidates selected per fleet cycle"),
    "autocomp.fleet.cycle_wall_s": ("series", "Fleet cycle wall-clock seconds"),
    "autocomp.fleet.returned_candidates": ("series", "Candidates returned from process workers per cycle"),
    "autocomp.fleet.cache_hit_ratio": ("series", "Stats-cache hit ratio per fleet cycle"),
    "autocomp.files_reduced": ("series", "Net file-count reduction per committed job"),
    "autocomp.gbhr": ("series", "GB-hours consumed per committed job"),
    # --- histograms (fixed-bucket distributions) ------------------------------
    "autocomp.hist.observe_wall_s": ("histogram", "Observe-phase wall seconds"),
    "autocomp.hist.pack_wall_s": ("histogram", "Worker-transport encode (export/pack) wall seconds per shard"),
    "autocomp.hist.unpack_wall_s": ("histogram", "Worker-transport decode (merge/unpack) wall seconds per shard"),
    "autocomp.hist.decide_wall_s": ("histogram", "Decide-phase wall seconds"),
    "autocomp.hist.act_wall_s": ("histogram", "Act-phase wall seconds"),
    "autocomp.hist.cycle_wall_s": ("histogram", "Full-cycle wall seconds"),
    "autocomp.hist.lock_wait_s": ("histogram", "Lock-manager acquire wait seconds"),
    "autocomp.hist.rewrite_bytes": ("histogram", "Bytes rewritten per committed compaction job"),
    "autocomp.hist.cache_hit_ratio": ("histogram", "Stats-cache hit ratio per fleet cycle"),
    "autocomp.hist.promoter_eval_wall_s": ("histogram", "Shadow-evaluation wall seconds per promoter tick"),
    "autocomp.hist.admission_admitted": ("histogram", "Candidates admitted per admission decision"),
    "autocomp.hist.admission_deferred": ("histogram", "Candidates deferred per admission decision"),
}

__all__ = [
    "BYTES_BOUNDS",
    "COUNT_BOUNDS",
    "LATENCY_BOUNDS_S",
    "METRICS",
    "RATIO_BOUNDS",
    "Histogram",
    "MetricSeries",
    "MetricsExporter",
    "ScopedTelemetry",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "StatusServer",
    "Telemetry",
    "Tracer",
    "check_exposition",
    "exponential_bounds",
    "format_status",
    "load_status_dir",
    "prom_name",
    "render_prometheus",
]
