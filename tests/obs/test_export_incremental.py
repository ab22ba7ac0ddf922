"""Encode-once export: every dump serialises only what is new since the last.

The tracer caches each collected span's JSONL line and Chrome event, and
the exporter keeps ``metrics.jsonl`` as a ring of already-encoded lines.
These tests pin the three properties that makes safe:

* **byte identity** — every export file equals what the full re-encode
  (kept below as the oracle) produces for the same state, across spans,
  adopted worker spans, ``clear()``, non-finite values and ring eviction;
* **O(Δ) work** — an export encodes each new span exactly once and no
  span twice;
* **serialised exports** — concurrent ``export_once`` calls (the periodic
  thread racing ``stop()``'s final export) never tear or drop a file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import exporter as exporter_module
from repro.obs.exporter import MetricsExporter, render_prometheus
from repro.obs.promcheck import check_exposition
from repro.obs.tracing import Span, SpanContext, SpanRecorder, Tracer, make_span
from repro.simulation import Telemetry

# --- the oracle: the full re-encode every export used to perform ---------------


def _oracle_json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _oracle_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_json_safe(v) for v in value]
    return value


def oracle_trace_jsonl(spans: list[Span]) -> str:
    lines = [json.dumps(span.to_dict(), sort_keys=True) for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def oracle_trace_chrome(spans: list[Span]) -> str:
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": [span.to_chrome_event() for span in spans],
    }
    return json.dumps(payload)


def oracle_snapshot_entry(telemetry: Telemetry, ts: float) -> dict:
    snap = telemetry.snapshot()
    return {
        "ts": ts,
        "counters": snap["counters"],
        "series_last": {
            name: (values[-1] if values else None)
            for name, (_, values) in snap["series"].items()
        },
        "histograms": {name: hist.summary() for name, hist in snap["histograms"].items()},
    }


def oracle_metrics_jsonl(entries: list[dict]) -> str:
    return "".join(
        json.dumps(_oracle_json_safe(entry), sort_keys=True) + "\n" for entry in entries
    )


def oracle_status(status: dict) -> str:
    return json.dumps(_oracle_json_safe(status), indent=2, sort_keys=True) + "\n"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as stream:
        return stream.read()


# --- random operation sequences --------------------------------------------------

_KEYS = st.sampled_from(["rows", "ratio", "shard", "nested", "span_id"])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)
_ATTRS = st.dictionaries(_KEYS, _VALUES, max_size=3)
_NAMES = st.sampled_from(["cycle", "observe", "decide", "act", "shard", "rewrite"])
_METRIC_VALUES = st.floats(allow_nan=True, allow_infinity=True)

_OPS = st.one_of(
    st.tuples(st.just("span"), _NAMES, _ATTRS),
    st.tuples(st.just("begin_end"), _NAMES, _ATTRS, _ATTRS),
    st.tuples(st.just("nested"), _NAMES, _NAMES, _ATTRS),
    st.tuples(st.just("adopt"), st.integers(min_value=0, max_value=3), _ATTRS),
    st.tuples(st.just("make_span"), _NAMES, _ATTRS),
    st.tuples(st.just("clear")),
    st.tuples(st.just("metric"), st.sampled_from(["inc", "record", "observe"]), _METRIC_VALUES),
    st.tuples(st.just("export")),
)


def _apply(op: tuple, tracer: Tracer, telemetry: Telemetry, tick: list[float]) -> None:
    kind = op[0]
    if kind == "span":
        with tracer.span(op[1], **op[2]):
            pass
    elif kind == "begin_end":
        span = tracer.begin(op[1], **op[2])
        tracer.end(span, **op[3])
    elif kind == "nested":
        with tracer.span(op[1]), tracer.span(op[2], **op[3]):
            pass
    elif kind == "adopt":
        recorder = SpanRecorder(SpanContext(trace_id="t" * 16, span_id="p" * 16))
        for i in range(op[1]):
            with recorder.span("observe", step=i, **op[2]):
                pass
        tracer.adopt(recorder.spans)
    elif kind == "make_span":
        tracer.adopt([make_span(op[1], tracer.current(), 1.5, 2.25, **op[2])])
    elif kind == "clear":
        tracer.clear()
    elif kind == "metric":
        tick[0] += 1.0
        name = f"autocomp.test.{op[1]}"
        if op[1] == "inc":
            telemetry.increment(name, op[2])
        elif op[1] == "record":
            telemetry.record(name, tick[0], op[2])
        else:
            telemetry.observe("autocomp.hist.cycle_wall_s", op[2])


_CLEAR_THEN_EXPORT = [
    ("span", "cycle", {}),
    ("export",),
    ("clear",),
    ("span", "observe", {"rows": 1}),
    ("export",),
]


class TestByteIdenticalToFullReencode:
    @given(ops=st.lists(_OPS, max_size=30))
    @example(ops=_CLEAR_THEN_EXPORT)
    @settings(max_examples=80, deadline=None)
    def test_every_export_matches_the_oracle(self, ops):
        ring = 3
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
            mp.setattr(exporter_module, "SNAPSHOT_RING", ring)
            tracer = Tracer()
            telemetry = Telemetry()
            ticks = itertools.count(1)
            status = {"ok": True, "ratio": math.nan, "lag": [math.inf, 1.0]}
            exporter = MetricsExporter(
                telemetry,
                out,
                tracer=tracer,
                status_fn=lambda: status,
                clock=lambda: float(next(ticks)),
            )
            entries: list[dict] = []
            tick = [0.0]
            for op in [*ops, ("export",)]:
                if op[0] != "export":
                    _apply(op, tracer, telemetry, tick)
                    continue
                exporter.export_once()
                entries.append(oracle_snapshot_entry(telemetry, float(len(entries) + 1)))
                spans = tracer.finished()
                # The public renderer is the oracle for metrics.prom: its
                # algorithm is unchanged, the export only shares its snapshot.
                assert _read(exporter.prom_path) == render_prometheus(telemetry)
                assert _read(exporter.jsonl_path) == oracle_metrics_jsonl(entries[-ring:])
                assert _read(exporter.trace_jsonl_path) == oracle_trace_jsonl(spans)
                assert _read(exporter.trace_chrome_path) == oracle_trace_chrome(spans)
                assert _read(exporter.status_path) == oracle_status(status)


class TestEncodeOnce:
    def test_each_export_encodes_exactly_the_new_spans(self, tmp_path, monkeypatch):
        calls = {"to_dict": 0, "to_chrome_event": 0}

        def counting(method):
            original = getattr(Span, method)

            def wrapper(self):
                calls[method] += 1
                return original(self)

            monkeypatch.setattr(Span, method, wrapper)

        counting("to_dict")
        counting("to_chrome_event")
        tracer = Tracer()
        exporter = MetricsExporter(Telemetry(), str(tmp_path), tracer=tracer)
        per_export = 7
        for round_ in range(20):
            for i in range(per_export):
                with tracer.span("observe", round=round_, i=i):
                    pass
            before = dict(calls)
            exporter.export_once()
            assert calls["to_dict"] - before["to_dict"] == per_export
            assert calls["to_chrome_event"] - before["to_chrome_event"] == per_export
        assert len(tracer.finished()) == 20 * per_export


class TestConcurrentExports:
    def test_racing_exports_never_tear_or_drop_a_file(self, tmp_path):
        tracer = Tracer()
        telemetry = Telemetry()
        ticks = itertools.count(1)
        exporter = MetricsExporter(
            telemetry,
            str(tmp_path),
            tracer=tracer,
            status_fn=lambda: {"ok": True},
            clock=lambda: float(next(ticks)),
        )
        errors: list[BaseException] = []
        exporting = threading.Event()
        exporting.set()

        def export_loop():
            try:
                for _ in range(50):
                    exporter.export_once()
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        def span_loop():
            # Paced and capped: the point is spans landing mid-export, not
            # a trace so large that every export rewrites megabytes.
            try:
                for i in range(5000):
                    if not exporting.is_set():
                        break
                    with tracer.span("cycle", shard=i):
                        telemetry.increment("autocomp.cycles")
                    time.sleep(0.0002)
            except BaseException as exc:
                errors.append(exc)

        spanner = threading.Thread(target=span_loop)
        exporters = [threading.Thread(target=export_loop) for _ in range(2)]
        spanner.start()
        for thread in exporters:
            thread.start()
        for thread in exporters:
            thread.join()
        exporting.clear()
        spanner.join()
        exporter.stop()  # the final export, as a daemon's shutdown does

        assert errors == []
        assert exporter.export_errors == 0
        assert exporter.exports == 101
        assert check_exposition(_read(exporter.prom_path)) == []
        json.loads(_read(exporter.status_path))
        json.loads(_read(exporter.trace_chrome_path))
        snapshots = [json.loads(line) for line in _read(exporter.jsonl_path).splitlines()]
        assert len(snapshots) == exporter.exports
        stamps = [snap["ts"] for snap in snapshots]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        dumped = [
            json.loads(line)["span_id"]
            for line in _read(exporter.trace_jsonl_path).splitlines()
        ]
        assert dumped == [span.span_id for span in tracer.finished()]
        assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]
