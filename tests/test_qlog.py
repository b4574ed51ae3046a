"""Query-lifecycle wide events: ids, scopes, per-query ledgers.

The contract under test: every span and fault instant a query produces
carries that query's ``qid`` — across the serial and process
backends, through a SIGKILL'd worker's inline re-run, and through the
device-fault host fallback — and each query's wide event reports only
its own metric movement (no cross-query bleed) and validates against
the checked-in JSON schema.
"""

import json

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import QueryCompiler, SuspendReason
from repro.engine import Engine, MorselConfig
from repro.engine import procpool
from repro.faults.injector import FaultInjector, set_fault_injector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import MetricsRegistry, Tracer, set_global_tracer
from repro.obs.context import (
    QueryContext,
    clear_degraded,
    next_query_id,
    plan_fingerprint,
    sql_digest,
)
from repro.obs.qlog import (
    QueryLog,
    get_query_log,
    query_scope,
    set_query_log,
    validate_wide_event,
)
from repro.obs.spans import INSTANT

CHAOS = FaultConfig(
    page_error_rate=0.05,
    latency_spike_rate=0.05,
    worker_crash_rate=0.2,
    channel_stall_rate=0.25,
)

BACKENDS = ["serial"] + (
    ["process"] if procpool.process_backend_available() else []
)


@pytest.fixture()
def qlog(tmp_path):
    log = QueryLog(str(tmp_path / "qlog.jsonl"))
    set_query_log(log)
    yield log
    set_query_log(None)
    log.close()


def _events(log):
    log.close()
    with open(log.path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _engine(db, backend, tracer=None, workers=2):
    return Engine(
        db,
        tracer=tracer,
        morsels=MorselConfig(
            parallel=True, morsel_rows=8192, n_workers=workers,
            worker_backend=backend,
        ),
    )


class TestQueryContext:
    def test_wire_roundtrip(self):
        ctx = QueryContext(
            query_id=7, query="q06", fingerprint="abc123",
            backend="process", seed=3,
        )
        assert QueryContext.from_wire(ctx.to_wire()) == ctx

    def test_ids_are_monotonic(self):
        first = next_query_id()
        assert next_query_id() == first + 1

    def test_fingerprint_is_structural(self):
        # Rebuilt plan objects fingerprint identically; different
        # queries do not (two query logs align on it).
        assert plan_fingerprint(tpch.query(6)) == plan_fingerprint(
            tpch.query(6)
        )
        assert plan_fingerprint(tpch.query(6)) != plan_fingerprint(
            tpch.query(1)
        )

    def test_sql_digest_normalizes_whitespace(self):
        assert sql_digest("SELECT  1") == sql_digest("select 1")
        assert sql_digest("select 1") != sql_digest("select 2")


class TestQueryScope:
    def test_disabled_scope_is_passive(self, small_db):
        assert get_query_log() is None
        with query_scope(tpch.query(6)) as scope:
            assert not scope.owner
            scope.annotate(ignored=True)
        assert scope.annotations == {}

    def test_owner_emits_exactly_one_event(self, small_db, qlog):
        plan = tpch.query(6)
        with query_scope(plan, query="q06") as outer:
            assert outer.owner
            with query_scope(plan, query="q06") as inner:
                assert not inner.owner
                inner.annotate(dropped="yes")
        events = _events(qlog)
        assert len(events) == 1
        assert events[0]["query"] == "q06"
        assert "dropped" not in events[0]["annotations"]

    def test_passive_singleton_accumulates_nothing(self, small_db, qlog):
        plan = tpch.query(6)
        for _ in range(2):
            with query_scope(plan) as outer:
                with query_scope(plan) as inner:
                    inner.annotate(junk=1)
        events = _events(qlog)
        assert all(e["annotations"] == {} for e in events)

    def test_event_validates_against_schema(self, small_db, qlog):
        _engine(small_db, "serial").execute_relation(tpch.query(6))
        for event in _events(qlog):
            assert validate_wide_event(event) == []

    def test_one_worker_engine_is_labelled_serial(self, small_db, qlog):
        # ``repro serve`` / ``top --demo`` shape: process is only the
        # *configured* backend; one worker runs every span inline.
        engine = Engine(
            small_db,
            morsels=MorselConfig(parallel=True, morsel_rows=8192),
        )
        assert engine.morsels.worker_backend == "process"
        engine.execute_relation(tpch.query(6))
        assert _events(qlog)[0]["backend"] == "serial"

    def test_seed_adopted_from_ambient_injector(self, small_db, qlog):
        injector = FaultInjector(FaultPlan(11, CHAOS))
        set_fault_injector(injector)
        try:
            _engine(small_db, "serial").execute_relation(tpch.query(6))
        finally:
            set_fault_injector(None)
        assert _events(qlog)[0]["seed"] == 11

    def test_engine_and_simulator_each_own_one_event(
        self, small_db, qlog
    ):
        plan = tpch.query(6)
        _engine(small_db, "serial").execute_relation(plan)
        AquomanSimulator(small_db, DeviceConfig()).run(plan, query="q06")
        events = _events(qlog)
        assert [e["backend"] for e in events] == ["serial", "device"]
        assert events[0]["fingerprint"] == events[1]["fingerprint"]
        assert events[1]["suspend"] is not None


class TestMetricsDelta:
    def test_back_to_back_queries_report_disjoint_counters(
        self, small_db, qlog
    ):
        # The satellite-1 regression: each wide event's counter section
        # is the movement *this* query caused, so two identical runs
        # report identical (not cumulative) flash page counts.
        plan = tpch.query(6)
        config = DeviceConfig()
        AquomanSimulator(small_db, config).run(plan, query="q06")
        AquomanSimulator(small_db, config).run(plan, query="q06")
        first, second = _events(qlog)
        pages_a = first["counters"].get("device.flash_pages_read")
        pages_b = second["counters"].get("device.flash_pages_read")
        assert pages_a is not None and pages_a > 0
        assert pages_b == pages_a

    def test_delta_sees_only_movement(self):
        registry = MetricsRegistry()
        registry.counter("x.before").inc(5)
        delta = registry.delta()
        registry.counter("x.after").inc(2)
        registry.counter("x.before").inc(3)
        moved = delta.collect()
        assert moved == {"x.after": 2.0, "x.before": 3.0}

    def test_histogram_delta(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x.ms")
        hist.observe(10.0)
        delta = registry.delta()
        hist.observe(4.0)
        assert delta.collect() == {"x.ms": {"count": 1, "sum": 4.0}}


class TestQidPropagation:
    """Satellite 4: qid on 100% of spans and fault events."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_span_carries_the_qid(self, small_db, qlog, backend):
        tracer = Tracer()
        set_global_tracer(tracer)
        injector = FaultInjector(FaultPlan(0, CHAOS))
        set_fault_injector(injector)
        try:
            _engine(small_db, backend, tracer=tracer).execute_relation(
                tpch.query(6)
            )
        finally:
            set_fault_injector(None)
            set_global_tracer(None)
        event = _events(qlog)[0]
        records = list(tracer.records())
        assert records
        missing = [
            rec[0] for _thread, rec in records
            if (rec[6] or {}).get("qid") != event["query_id"]
        ]
        assert missing == []

    def test_fault_instants_carry_the_qid(self, small_db, qlog):
        tracer = Tracer()
        set_global_tracer(tracer)
        injector = FaultInjector(FaultPlan(0, CHAOS))
        set_fault_injector(injector)
        try:
            _engine(small_db, "serial", tracer=tracer).execute_relation(
                tpch.query(6)
            )
        finally:
            set_fault_injector(None)
            set_global_tracer(None)
        event = _events(qlog)[0]
        instants = [
            rec for _thread, rec in tracer.records()
            if rec[3] == INSTANT and rec[0].startswith("fault.")
        ]
        assert instants, "chaos config produced no fault instants"
        assert all(
            rec[6].get("qid") == event["query_id"] for rec in instants
        )
        assert event["faults"]["counts"]["page_errors"] > 0

    @pytest.mark.skipif(
        not procpool.process_backend_available(),
        reason="no fork start method on this platform",
    )
    def test_dead_worker_inline_rerun_keeps_the_qid(
        self, small_db, qlog, dead_worker_pool
    ):
        tracer = Tracer()
        set_global_tracer(tracer)
        try:
            _engine(
                small_db, "process", tracer=tracer
            ).execute_relation(tpch.query(6))
        finally:
            set_global_tracer(None)
        event = _events(qlog)[0]
        unstamped = [
            rec[0] for _thread, rec in tracer.records()
            if (rec[6] or {}).get("qid") != event["query_id"]
        ]
        assert unstamped == []

    def test_device_fault_fallback_keeps_the_qid(self, small_db, qlog):
        tracer = Tracer()
        set_global_tracer(tracer)
        injector = FaultInjector(
            FaultPlan(0, FaultConfig(device_fault_rate=1.0))
        )
        set_fault_injector(injector)
        try:
            AquomanSimulator(
                small_db, DeviceConfig(), tracer=tracer
            ).run(tpch.query(6), query="q06")
        finally:
            set_fault_injector(None)
            set_global_tracer(None)
            clear_degraded()  # the host fallback set it
        event = _events(qlog)[0]
        assert event["faults"]["counts"]["host_fallbacks"] >= 1
        fallbacks = [
            rec for _thread, rec in tracer.records()
            if rec[0] == "fault.fallback"
        ]
        assert fallbacks
        assert all(
            rec[6].get("qid") == event["query_id"] for rec in fallbacks
        )


class TestBitIdentityWithQueryLog:
    """Enabling the query log must not change a single output bit."""

    @pytest.fixture(scope="class")
    def reference(self, small_db):
        return {
            n: Engine(small_db).execute_relation(tpch.query(n))
            for n in tpch.ALL_QUERIES
        }

    def test_all_queries_serial(self, small_db, reference, tmp_path):
        from test_procpool import assert_identical

        log = QueryLog(str(tmp_path / "qlog.jsonl"))
        set_query_log(log)
        try:
            for n in sorted(tpch.ALL_QUERIES):
                out = Engine(small_db).execute_relation(tpch.query(n))
                assert_identical(out, reference[n])
        finally:
            set_query_log(None)
            log.close()
        assert log.n_emitted == len(tpch.ALL_QUERIES)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [1, 6, 14])
    def test_parallel_backends(
        self, small_db, reference, tmp_path, backend, n
    ):
        from test_procpool import assert_identical

        log = QueryLog(str(tmp_path / "qlog.jsonl"))
        set_query_log(log)
        tracer = Tracer()
        try:
            out = _engine(
                small_db, backend, tracer=tracer
            ).execute_relation(tpch.query(n))
        finally:
            set_query_log(None)
            log.close()
        assert_identical(out, reference[n])


class TestQueryLogFile:
    def test_two_runs_append_to_one_log(self, tmp_path):
        path = str(tmp_path / "qlog.jsonl")
        for wall in (100.0, 104.0):  # two runs append to one log
            log = QueryLog(path)
            log.emit({"query": "q06", "fingerprint": "a" * 16,
                      "wall_ms": wall})
            log.close()
        assert [e["wall_ms"] for e in _events(log)] == [100.0, 104.0]


class TestWideEventContent:
    def test_critpath_buckets_sum_to_path(self, small_db, qlog):
        tracer = Tracer()
        _engine(small_db, "serial", tracer=tracer).execute_relation(
            tpch.query(6)
        )
        event = _events(qlog)[0]
        critpath = event["critpath"]
        assert critpath is not None
        total = sum(critpath["buckets"].values())
        assert total == pytest.approx(critpath["path_ms"], abs=1e-3)
        assert critpath["path_ms"] <= event["wall_ms"] * 1.01

    def test_spans_dropped_recorded_and_warned(
        self, small_db, qlog, capsys
    ):
        # Q6 records four spans inline: its fragment's one window over
        # eight modeled spans, the merge, the fragment and the query.
        tracer = Tracer(ring_capacity=2)
        _engine(small_db, "serial", tracer=tracer).execute_relation(
            tpch.query(6)
        )
        event = _events(qlog)[0]
        assert event["spans_dropped"] == 2
        assert "spans dropped by ring wrap-around" in (
            capsys.readouterr().err
        )

    def test_spans_dropped_is_the_querys_own_loss(
        self, tiny_db, qlog, capsys
    ):
        # Q21 wraps a 16-record ring; Q6's few spans then fit in it.
        # Q6 evicts Q21's records, not its own: it lost nothing, and
        # only Q21 warns.
        tracer = Tracer(ring_capacity=16)
        engine = Engine(tiny_db, tracer=tracer)
        engine.execute_relation(tpch.query(21))
        engine.execute_relation(tpch.query(6))
        q21, q06 = _events(qlog)
        assert q21["spans_dropped"] > 0
        assert q06["spans_dropped"] == 0
        assert tracer.n_dropped > q21["spans_dropped"]
        err = capsys.readouterr().err
        assert err.count("spans dropped") == 1
        assert "query %d" % q21["query_id"] in err

    def test_analysis_annotation_lands_in_the_event(
        self, small_db, qlog
    ):
        engine = Engine(small_db, analyze="warn")
        engine.execute_relation(tpch.query(6))
        event = _events(qlog)[0]
        assert event["analysis"] is not None
        assert event["analysis"]["ok"] is True


class TestSuspendMisprediction:
    """``suspend.mispredicted`` scores the compiler, over the classes it
    decides at plan time; spills and DRAM overflows are only observed."""

    CONFIG = DeviceConfig(scale_ratio=1000 / 0.01)

    def test_no_tpch_plan_is_flagged(self, small_db, tmp_path):
        log = QueryLog(str(tmp_path / "qlog.jsonl"))
        set_query_log(log)
        try:
            for n in sorted(tpch.ALL_QUERIES):
                AquomanSimulator(small_db, self.CONFIG).run(
                    tpch.query(n), query=f"q{n:02d}"
                )
        finally:
            set_query_log(None)
        suspend = {e["query"]: e["suspend"] for e in _events(log)}
        assert len(suspend) == 22
        # The doctor's AQ2xx scorecard has 0 of 22 wrong as well.
        assert [q for q, s in suspend.items() if s["mispredicted"]] == []
        # Every spill is still listed, q18's predicted-exactly one too.
        spill = SuspendReason.GROUP_SPILL.value
        assert sorted(
            q for q, s in suspend.items() if spill in s["observed"]
        ) == ["q02", "q03", "q10", "q11", "q17", "q18", "q20"]
        assert all(spill not in s["predicted"] for s in suspend.values())

    def test_runtime_heap_guard_trip_is_flagged(self, small_db, tmp_path):
        """A compiler that thought Q13's comment heap fits, on a device
        whose guard says it does not."""
        log = QueryLog(str(tmp_path / "qlog.jsonl"))
        set_query_log(log)
        tracer = Tracer()
        try:
            sim = AquomanSimulator(small_db, self.CONFIG, tracer=tracer)
            sim.compiler = QueryCompiler(small_db, scale_ratio=1.0)
            result = sim.run(tpch.query(13), query="q13")
            # Two ordinary queries after it are not flagged.
            for n in (6, 1):
                AquomanSimulator(
                    small_db, self.CONFIG, tracer=tracer
                ).run(tpch.query(n), query=f"q{n:02d}")
        finally:
            set_query_log(None)
        assert SuspendReason.STRING_HEAP in result.suspend_reasons
        q13, q06, q01 = _events(log)
        heap = SuspendReason.STRING_HEAP.value
        assert q13["suspend"] == {
            "predicted": [], "observed": [heap], "mispredicted": True,
        }
        assert not q06["suspend"]["mispredicted"]
        assert not q01["suspend"]["mispredicted"]
