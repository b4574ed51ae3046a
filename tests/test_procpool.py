"""Process-based morsel execution: pools, zero-copy reopen, parity.

The process backend's contract is that it is *invisible* except for
speed: all 22 TPC-H queries bit-identical to inline (serial) spans,
fault campaigns reproducing the exact same counters and events
(placement is pure ``(seed, site)``), worker span records landing in
the parent tracer's lanes, and a worker killed mid-run — or a pool
that cannot be had at all — degrading to inline execution without
changing a single output bit.
"""

import os
import signal
import warnings

import numpy as np
import pytest

from repro import tpch
from repro.core.device import DeviceConfig
from repro.core.simulator import AquomanSimulator
from repro.engine import Engine, MorselConfig
from repro.engine import procpool
from repro.engine.morsel import (
    MAX_FRAGMENT_MORSELS,
    MORSEL_ALIGN_ROWS,
    TUNED_MORSEL_ROWS,
)
from repro.faults.errors import UnrecoverableFault
from repro.faults.injector import FaultInjector, set_fault_injector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs.spans import Tracer

pytestmark = pytest.mark.skipif(
    not procpool.process_backend_available(),
    reason="no fork start method on this platform",
)

# Every fault class at once.  The device rate acts only on the device
# simulator, which the chaos-run test below and tests/test_determinism.py
# run under this config.
CHAOS = FaultConfig(
    page_error_rate=0.02,
    latency_spike_rate=0.05,
    worker_crash_rate=0.2,
    device_fault_rate=0.3,
    channel_stall_rate=0.25,
)


def _engine(db, backend, workers=2, morsel_rows=8192, tracer=None):
    return Engine(
        db,
        tracer=tracer,
        morsels=MorselConfig(
            parallel=True,
            morsel_rows=morsel_rows,
            n_workers=workers,
            worker_backend=backend,
        ),
    )


def assert_identical(a, b):
    assert a.names == b.names
    assert a.nrows == b.nrows
    for name in b.names:
        x, y = a.column(name), b.column(name)
        assert x.kind is y.kind, name
        assert x.scale == y.scale, name
        assert x.values.dtype == y.values.dtype, name
        assert np.array_equal(x.values, y.values), name


class TestBackendDifferential:
    """All 22 queries: inline spans and the pool against monolithic."""

    @pytest.fixture(scope="class")
    def monolithic(self, small_db):
        return {
            n: Engine(small_db).execute_relation(tpch.query(n))
            for n in tpch.ALL_QUERIES
        }

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("n", sorted(tpch.ALL_QUERIES))
    def test_query(self, small_db, monolithic, n, backend):
        out = _engine(small_db, backend).execute_relation(tpch.query(n))
        assert_identical(out, monolithic[n])

    def test_string_heaps_reattach_to_parent_catalog(self, small_db):
        # q1 groups by two CHAR columns; the partials cross the process
        # boundary as heap *tokens* and must come back wearing the
        # parent's own heap objects, not worker copies.
        out = _engine(small_db, "process").execute_relation(tpch.query(1))
        table = small_db.table("lineitem")
        assert out.column("l_returnflag").heap is (
            table.column("l_returnflag").heap
        )


class TestPassThroughPartials:
    """Each batch's runner decides from the first span it executes, so
    which spans skip the partial reduce moves with the backend and the
    batch size; the result may not."""

    @pytest.mark.parametrize("backend, rounds, passed", [
        ("serial", 4, 7),    # one runner: all but the first of 8 spans
        ("process", 1, 6),   # two batches of four
        ("process", 2, 4),   # four batches of two
        ("process", 4, 0),   # one span a batch: nothing to skip
    ])
    def test_result_ignores_where_the_switch_falls(
        self, small_db, monkeypatch, backend, rounds, passed
    ):
        from test_morsel_differential import (
            passthrough_spans,
            wide_group_query,
        )

        monkeypatch.setattr(procpool, "DISPATCH_ROUNDS", rounds)
        tracer = Tracer()
        plan = wide_group_query()
        out = _engine(small_db, backend, tracer=tracer).execute_relation(
            plan
        )
        assert passthrough_spans(tracer) == (8, passed)
        assert_identical(out, Engine(small_db).execute_relation(plan))


class TestFaultDeterminism:
    """(seed, site) placement makes chaos identical across backends."""

    def _run(self, db, backend, seed, workers=4, query=6):
        injector = FaultInjector(FaultPlan(seed, CHAOS))
        set_fault_injector(injector)
        try:
            out = _engine(db, backend, workers=workers).execute_relation(
                tpch.query(query)
            )
        finally:
            set_fault_injector(None)
        return out, injector

    @pytest.mark.parametrize("seed", [0, 7])
    def test_summary_and_events_match_serial(self, small_db, seed):
        serial_out, serial_inj = self._run(small_db, "serial", seed)
        proc_out, proc_inj = self._run(small_db, "process", seed)
        assert proc_inj.summary() == serial_inj.summary()
        assert proc_inj.sorted_events() == serial_inj.sorted_events()
        assert_identical(proc_out, serial_out)

    def test_worker_count_does_not_move_faults(self, small_db):
        _, one = self._run(small_db, "process", 3, workers=1)
        _, four = self._run(small_db, "process", 3, workers=4)
        assert one.summary() == four.summary()

    def test_budget_exhaustion_raises_through_the_pool(self, small_db):
        config = FaultConfig(worker_crash_rate=1.0, retry_budget=2)
        injector = FaultInjector(FaultPlan(0, config))
        set_fault_injector(injector)
        try:
            with pytest.raises(UnrecoverableFault) as exc:
                _engine(small_db, "process", workers=4).execute_relation(
                    tpch.query(6)
                )
        finally:
            set_fault_injector(None)
        assert exc.value.site.startswith("morsel/lineitem/")
        # every dispatched span still charged its crashes before the
        # raise: workers finish their batches, replies are absorbed
        assert injector.counts["worker_crashes"] > 0
        assert injector.counts["morsel_retries"] > 0

    def test_campaign_report_identical_across_backends(self, small_db):
        # Host engine then device simulator under one injector, as a
        # chaos run does: every fault summary, event list and result
        # must be the same whichever backend ran the host spans.
        device = DeviceConfig(scale_ratio=1000.0 / 0.01)
        for query in (6, 14):
            plan = tpch.query(query)
            ref_device = AquomanSimulator(small_db, device).run(plan).table
            for seed in (0, 1):
                runs = {}
                for backend in ("serial", "process"):
                    injector = FaultInjector(FaultPlan(seed, CHAOS))
                    set_fault_injector(injector)
                    try:
                        host = _engine(
                            small_db, backend, workers=4
                        ).execute_relation(plan)
                        table = AquomanSimulator(small_db, device).run(
                            plan
                        ).table
                    finally:
                        set_fault_injector(None)
                    assert ref_device.equals(
                        table.renamed(ref_device.name)
                    ), (query, seed, backend)
                    runs[backend] = (host, injector)
                (s_out, s_inj), (p_out, p_inj) = (
                    runs["serial"], runs["process"]
                )
                assert s_inj.summary()["injected"] > 0, (query, seed)
                assert p_inj.summary() == s_inj.summary(), (query, seed)
                assert p_inj.sorted_events() == s_inj.sorted_events()
                assert_identical(p_out, s_out)


class TestWorkerDeath:
    """A killed worker degrades to inline re-runs, bit-identically."""

    def test_result_survives_a_dead_worker(self, small_db, dead_worker_pool):
        ref = _engine(small_db, "serial").execute_relation(tpch.query(6))
        assert dead_worker_pool.alive_count() == 1
        out = _engine(small_db, "process").execute_relation(tpch.query(6))
        assert_identical(out, ref)

    def test_fully_dead_pool_is_replaced(self, small_db):
        pool = procpool.get_process_pool(small_db, 2)
        for worker in pool.workers:
            if worker.proc.is_alive():
                os.kill(worker.proc.pid, signal.SIGKILL)
            worker.proc.join(timeout=5.0)
        fresh = procpool.get_process_pool(small_db, 2)
        assert fresh is not pool
        assert fresh.alive_count() == 2
        ref = _engine(small_db, "serial").execute_relation(tpch.query(6))
        out = _engine(small_db, "process").execute_relation(tpch.query(6))
        assert_identical(out, ref)


class TestPoolUnavailable:
    """No fork, or no live worker: inline spans, one warning, same bits."""

    @pytest.fixture()
    def fresh_warning(self, monkeypatch):
        monkeypatch.setattr(procpool, "_warned_no_fork", False)

    def _run_twice(self, db):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs = [
                _engine(db, "process").execute_relation(tpch.query(6))
                for _ in range(2)
            ]
        return outs, [w for w in caught if w.category is RuntimeWarning]

    def test_missing_fork(self, small_db, monkeypatch, fresh_warning):
        ref = _engine(small_db, "serial").execute_relation(tpch.query(6))
        monkeypatch.setattr(
            procpool, "process_backend_available", lambda: False
        )
        outs, caught = self._run_twice(small_db)
        assert len(caught) == 1 and "inline" in str(caught[0].message)
        assert _engine(small_db, "process").backend_name() == "serial"
        for out in outs:
            assert_identical(out, ref)

    def test_broken_pool(self, small_db, monkeypatch, fresh_warning):
        ref = _engine(small_db, "serial").execute_relation(tpch.query(6))

        def broken(self, requests, opts):
            raise procpool.PoolBroken("no live workers")

        monkeypatch.setattr(procpool.ProcessPool, "run", broken)
        outs, caught = self._run_twice(small_db)
        assert len(caught) == 1 and "inline" in str(caught[0].message)
        for out in outs:
            assert_identical(out, ref)


class TestSpanClamp:
    def test_small_tables_keep_their_spans(self):
        # below the clamp, spans_for == split_morsels: existing fault
        # sites (morsel/{table}/{lo}-{hi}) stay byte-identical
        config = MorselConfig(morsel_rows=8192)
        assert config.spans_for(59_870) == [
            (lo, min(lo + 8192, 59_870)) for lo in range(0, 59_870, 8192)
        ]

    def test_huge_tables_clamp_to_bounded_fanout(self):
        config = MorselConfig(morsel_rows=8192)
        spans = config.spans_for(10_000_000)
        assert len(spans) <= MAX_FRAGMENT_MORSELS
        assert spans[0][0] == 0 and spans[-1][1] == 10_000_000
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        for lo, _ in spans:
            assert lo % MORSEL_ALIGN_ROWS == 0

    def test_clamp_is_worker_count_independent(self):
        # fault sites are span-named; the clamp must not move when the
        # worker count does
        a = MorselConfig(morsel_rows=8192, n_workers=1)
        b = MorselConfig(morsel_rows=8192, n_workers=16)
        assert a.spans_for(10_000_000) == b.spans_for(10_000_000)

    def test_tuned_default_is_aligned(self):
        assert TUNED_MORSEL_ROWS % MORSEL_ALIGN_ROWS == 0


class TestBatching:
    def test_batches_partition_in_order(self):
        spans = [(k, k + 1) for k in range(37)]
        batches = procpool.make_batches(spans, 4)
        assert [s for b in batches for s in b] == spans
        assert all(batches)

    def test_small_fanout_stays_one_span_per_batch(self):
        spans = [(0, 1), (1, 2)]
        assert procpool.make_batches(spans, 4) == [[(0, 1)], [(1, 2)]]


class TestReopenMappedColumns:
    def test_roundtrip_and_reopen(self, tmp_path, tiny_db):
        from repro.storage.io import (
            load_catalog,
            reopen_mapped_columns,
            save_catalog,
        )

        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)
        column = loaded.table("lineitem").column("l_quantity")
        assert column.is_mapped and column.source_path is not None
        before = np.array(column.values[:64])
        reopened = reopen_mapped_columns(loaded)
        assert reopened > 0
        column = loaded.table("lineitem").column("l_quantity")
        assert column.is_mapped
        assert np.array_equal(column.values[:64], before)

    def test_in_memory_catalog_is_untouched(self, tiny_db):
        from repro.storage.io import reopen_mapped_columns

        assert reopen_mapped_columns(tiny_db) == 0

    def test_disk_catalog_through_process_backend(self, tmp_path, tiny_db):
        from repro.storage.io import load_catalog, save_catalog

        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)
        ref = _engine(loaded, "serial").execute_relation(tpch.query(6))
        out = _engine(loaded, "process").execute_relation(tpch.query(6))
        assert_identical(out, ref)

    def test_fresh_catalog_forks_workers_over_unsplit_heaps(
        self, tmp_path, small_db
    ):
        from repro.storage.io import load_catalog, save_catalog

        save_catalog(small_db, tmp_path)
        loaded = load_catalog(tmp_path)
        heaps = [
            column.heap
            for name in loaded.table_names()
            for column in loaded.table(name).columns
            if column.heap is not None
        ]
        # The pool forks on the first process run: from file bytes.
        assert all(h._strings is None for h in heaps)
        for n in sorted(tpch.ALL_QUERIES):
            out = _engine(loaded, "process").execute_relation(tpch.query(n))
            ref = _engine(loaded, "serial").execute_relation(tpch.query(n))
            assert_identical(out, ref)
            for name in out.names:
                if ref.column(name).heap in heaps:
                    assert out.column(name).heap is ref.column(name).heap


class TestTracerAdoption:
    def test_worker_lanes_reach_the_parent_tracer(self, small_db):
        tracer = Tracer()
        _engine(small_db, "process", tracer=tracer).execute_relation(
            tpch.query(6)
        )
        lanes = {thread for thread, _ in tracer.records()}
        assert any(lane.startswith("proc-worker-") for lane in lanes)
        span_names = {
            rec[0]
            for thread, rec in tracer.records()
            if thread.startswith("proc-worker-")
        }
        assert "morsel.span" in span_names

    def test_adopt_appends_under_one_lane(self):
        tracer = Tracer()
        tracer.adopt("proc-worker-0", [("a", None, 0, 5, 0, 5, None)])
        tracer.adopt("proc-worker-0", [("b", None, 5, 5, 0, 5, None)])
        records = [
            rec for thread, rec in tracer.records()
            if thread == "proc-worker-0"
        ]
        assert [r[0] for r in records] == ["a", "b"]
