"""The observability layer: spans, metrics, the Chrome exporter."""

import json
import time

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.engine.procpool import process_backend_available
from repro.obs import (
    METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    get_tracer,
    set_global_tracer,
    traced,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import INSTANT


def spans_named(tracer, name):
    return [rec for _, rec in tracer.records() if rec[0] == name]


def export(tracer):
    return chrome_trace(
        list(tracer.records()), tracer.epoch_ns, tracer.n_dropped
    )


class TestSpans:
    def test_nesting_depth_and_self_time(self):
        t = Tracer()
        with t.span("outer"):
            time.sleep(0.002)
            with t.span("inner"):
                time.sleep(0.002)
        (outer,) = spans_named(t, "outer")
        (inner,) = spans_named(t, "inner")
        assert outer[4] == 0 and inner[4] == 1  # depth
        assert outer[3] >= inner[3]             # dur includes child
        # outer self-time excludes the inner span entirely
        assert outer[5] == outer[3] - inner[3]

    def test_span_args_and_set(self):
        t = Tracer()
        with t.span("op", rows_in=10) as span:
            span.set(rows_out=3)
        (rec,) = spans_named(t, "op")
        assert rec[6] == {"rows_in": 10, "rows_out": 3}

    def test_instant_event(self):
        t = Tracer()
        t.instant("suspend", lane="device", reason="dram")
        (rec,) = spans_named(t, "suspend")
        assert rec[3] == INSTANT
        assert rec[1] == "device"

    def test_own_lane_then_adopted_lanes_each_wrapping(self):
        t = Tracer(ring_capacity=4)
        worker = [("morsel.span", None, i, 1, 0, 1, None) for i in range(6)]
        with t.span("outer"):
            t.adopt("proc-worker-1", worker)
            with t.span("inner"):
                pass
        t.adopt("proc-worker-0", worker[:2])
        t.adopt("proc-worker-1", worker[:1])
        lanes = [lane for lane, _ in t.records()]
        assert lanes == ["MainThread"] * 2 + ["proc-worker-1"] * 4 \
            + ["proc-worker-0"] * 2
        # proc-worker-1 took 7 records into 4 slots: the oldest 3 went.
        adopted = [rec for lane, rec in t.records() if lane == "proc-worker-1"]
        assert [rec[2] for rec in adopted] == [3, 4, 5, 0]
        assert t.n_records == 8
        assert t.n_dropped == 3
        inner, outer = (rec for lane, rec in t.records()
                        if lane == "MainThread")
        assert (inner[0], inner[4]) == ("inner", 1)
        assert (outer[0], outer[4]) == ("outer", 0)
        assert outer[5] == outer[3] - inner[3]

    def test_ring_buffer_wraps_and_counts_drops(self):
        t = Tracer(ring_capacity=8)
        for i in range(20):
            with t.span(f"s{i}"):
                pass
        assert t.n_records == 8
        assert t.n_dropped == 12
        kept = [rec[0] for _, rec in t.records()]
        assert kept == [f"s{i}" for i in range(12, 20)]  # oldest first

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", a=1) as span:
            span.set(b=2)
        NULL_TRACER.instant("y")
        assert NULL_TRACER.n_records == 0
        assert not NULL_TRACER.enabled
        assert list(NULL_TRACER.records()) == []

    def test_traced_decorator_uses_global_tracer(self):
        t = Tracer()

        @traced("decorated.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2           # global tracer disabled: no record
        set_global_tracer(t)
        try:
            assert get_tracer() is t
            assert fn(2) == 3
        finally:
            set_global_tracer(None)
        assert get_tracer() is NULL_TRACER
        assert len(spans_named(t, "decorated.fn")) == 1

    def test_total_ns(self):
        t = Tracer()
        with t.span("a"):
            time.sleep(0.001)
        with t.span("a"):
            time.sleep(0.001)
        assert t.total_ns("a") >= 2_000_000
        assert t.total_ns("missing") == 0


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("pages")
        c.inc()
        c.inc(4)
        g = reg.gauge("ratio")
        g.set(0.5)
        g.add(0.25)
        h = reg.histogram("rows")
        h.observe(5)
        h.observe(500)
        snap = reg.snapshot()
        assert snap["pages"] == 5
        assert snap["ratio"] == 0.75
        assert snap["rows"] == {"count": 2, "sum": 505.0, "mean": 252.5}

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_reset_keeps_cached_references_recording(self):
        reg = MetricsRegistry()
        c = reg.counter("kept")
        c.inc(7)
        reg.reset()
        assert reg.snapshot()["kept"] == 0
        c.inc(2)  # the cached reference must still be live
        assert reg.snapshot()["kept"] == 2


class TestChromeExport:
    def test_valid_schema_and_lanes(self, tmp_path):
        t = Tracer()
        with t.span("outer"):
            with t.span("staged", lane="device.row_selector"):
                pass
        t.instant("mark")
        path = tmp_path / "trace.json"
        write_chrome_trace(t, str(path), metadata={"coverage": 0.99})
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert "device.row_selector" in doc["otherData"]["lanes"]
        assert doc["otherData"]["coverage"] == 0.99
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i"} <= phases

    def test_lane_override_routes_tid(self):
        t = Tracer()
        with t.span("host"):
            pass
        with t.span("dev", lane="device"):
            pass
        doc = export(t)
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        events = {
            e["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert events["dev"] == names["device"]
        assert events["host"] == names["MainThread"]

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad = {"traceEvents": [{"ph": "X", "name": "x", "ts": 0}]}
        assert "$.traceEvents[0]: missing required key 'dur'" in (
            validate_chrome_trace(bad)
        )
        negative = {
            "traceEvents": [
                {"ph": "X", "name": "x", "ts": 0, "dur": -5,
                 "pid": 1, "tid": 0}
            ]
        }
        assert validate_chrome_trace(negative) == [
            "$.traceEvents[0].dur: -5 is below the minimum 0"
        ]


class TestExecutorIntegration:
    def test_engine_records_operator_spans(self, tiny_db):
        t = Tracer()
        engine = Engine(tiny_db, tracer=t)
        engine.execute_relation(tpch.query(6))
        names = {rec[0] for _, rec in t.records()}
        assert {"engine.query", "engine.scan", "engine.filter",
                "engine.aggregate"} <= names

    def test_engine_default_is_null_tracer(self, tiny_db):
        engine = Engine(tiny_db)
        assert engine.tracer is NULL_TRACER

    @pytest.mark.skipif(
        not process_backend_available(),
        reason="no fork start method on this platform",
    )
    def test_morsel_workers_get_own_lanes(self, small_db):
        # Morsels align to 8192 rows, so the ~60k-row catalog is the
        # smallest that fans out across workers.
        t = Tracer()
        engine = Engine(
            small_db,
            tracer=t,
            morsels=MorselConfig(
                parallel=True, morsel_rows=8192, n_workers=2
            ),
        )
        engine.execute_relation(tpch.query(6))
        lanes = {
            rec[1] if rec[1] else thread
            for thread, rec in t.records()
            if rec[0] == "morsel.span"
        }
        assert len(lanes) >= 2
        assert all(lane.startswith("proc-worker") for lane in lanes)

    def test_simulator_records_device_stage_lanes(self, tiny_db):
        t = Tracer()
        sim = AquomanSimulator(
            tiny_db, DeviceConfig(scale_ratio=1e5), tracer=t
        )
        sim.run(tpch.query(6), query="q06")
        doc = export(t)
        lanes = set(doc["otherData"]["lanes"])
        assert "device" in lanes
        assert "device.row_selector" in lanes
        assert "device.transformer" in lanes
        assert "device.swissknife" in lanes

    def test_identical_results_with_and_without_tracer(self, tiny_db):
        plain = Engine(tiny_db).execute(tpch.query(1))
        traced_run = Engine(tiny_db, tracer=Tracer()).execute(
            tpch.query(1)
        )
        assert plain.equals(traced_run)

    def test_analysis_gate_span(self, tiny_db):
        t = Tracer()
        engine = Engine(tiny_db, tracer=t, analyze="warn")
        engine.execute_relation(tpch.query(6))
        assert len(spans_named(t, "analysis.gate")) == 1

    def test_metrics_page_accounting(self, small_db):
        METRICS.reset()
        engine = Engine(
            small_db,
            morsels=MorselConfig(parallel=True, morsel_rows=8192),
        )
        engine.execute_relation(tpch.query(6))
        snap = METRICS.snapshot()
        assert snap["flash.pages_read"] > 0
        assert snap["morsel.rows_streamed"] > 0
