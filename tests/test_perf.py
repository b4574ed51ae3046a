"""Performance models: traces, scaling, system timing, reports."""

from dataclasses import dataclass, field, fields

import pytest

from repro.perf.model import (
    AQUOMAN_16GB,
    AQUOMAN_40GB,
    HOST_L,
    HOST_S,
    BASELINE_READ_BANDWIDTH,
    SystemModel,
)
from repro.perf.report import run_evaluation
from repro.perf.scaling import scale_trace
from repro.perf.trace import OpTrace, QueryTrace
from repro.util.units import GB


def make_trace(
    query="q",
    sf=0.01,
    flash_gb=1.0,
    ops=(),
    peak_gb=0.0,
    aq_flash_gb=0.0,
):
    trace = QueryTrace(query=query, scale_factor=sf)
    trace.record_flash("lineitem", "c", int(flash_gb * GB))
    for op in ops:
        trace.record_op(op)
    trace.peak_host_bytes = int(peak_gb * GB)
    trace.aquoman_flash_bytes = int(aq_flash_gb * GB)
    return trace


class TestScaling:
    def test_linear_tables_scale(self):
        trace = make_trace(sf=1.0, flash_gb=1.0)
        scaled = scale_trace(trace, 100.0)
        assert scaled.flash_read_bytes[("lineitem", "c")] == 100 * GB

    def test_constant_tables_do_not_scale(self):
        trace = QueryTrace(query="q", scale_factor=1.0)
        trace.record_flash("nation", "n_name", 1000)
        scaled = scale_trace(trace, 100.0)
        assert scaled.flash_read_bytes[("nation", "n_name")] == 1000

    # Every field at a non-default value, and what SF 0.5 -> 2.0 makes
    # of it: volumes x4 (constant tables excepted), the rest kept.
    FULL = dict(
        query="qx", scale_factor=0.5,
        flash_read_bytes={("lineitem", "c"): 1000, ("nation", "n"): 10},
        flash_pages_read={("lineitem", "c"): 7, ("region", "r"): 1},
        flash_pages_skipped={("lineitem", "c"): 3, ("region", "r"): 2},
        ops=[OpTrace("filter", 10, 5, 80, 40, detail="d")],
        peak_host_bytes=11, total_intermediate_bytes=40,
        aquoman_flash_bytes=13, aquoman_sorter_bytes=17,
        aquoman_dram_peak_bytes=19, aquoman_output_bytes=23,
        groupby_spill_groups=29, suspended=True, suspend_reason="why",
        offload_fraction_rows=0.75,
        fault_stall_s=3.0, aquoman_fault_stall_s=2.0,
    )
    SCALED = dict(
        FULL, scale_factor=2.0,
        flash_read_bytes={("lineitem", "c"): 4000, ("nation", "n"): 10},
        flash_pages_read={("lineitem", "c"): 28, ("region", "r"): 1},
        flash_pages_skipped={("lineitem", "c"): 12, ("region", "r"): 2},
        ops=[OpTrace("filter", 40, 20, 320, 160, detail="d")],
        peak_host_bytes=44, total_intermediate_bytes=160,
        aquoman_flash_bytes=52, aquoman_sorter_bytes=68,
        aquoman_dram_peak_bytes=76, aquoman_output_bytes=92,
        groupby_spill_groups=116,
        fault_stall_s=12.0, aquoman_fault_stall_s=8.0,
    )

    @pytest.mark.parametrize("name", [f.name for f in fields(QueryTrace)])
    def test_no_field_is_forgotten(self, name):
        trace = QueryTrace(**self.FULL)
        # A field added to QueryTrace has to be given a value above.
        assert getattr(trace, name) != getattr(QueryTrace(), name)
        scaled = scale_trace(trace, 2.0)
        assert getattr(scaled, name) == self.SCALED[name]
        assert getattr(trace, name) == self.FULL[name]  # source untouched

    def test_field_without_a_rule_is_refused(self):
        @dataclass
        class Wider(QueryTrace):
            channel_pages: list = field(default_factory=list)

        with pytest.raises(TypeError, match="channel_pages"):
            scale_trace(Wider(), 2.0)

    def test_constant_domain_groups_capped(self):
        op = OpTrace("aggregate", rows_in=10**6, rows_out=4,
                     bytes_in=8 * 10**6, bytes_out=100, groups=4)
        trace = make_trace(sf=1.0, ops=[op])
        scaled = scale_trace(trace, 1000.0)
        agg = scaled.ops[0]
        assert agg.groups == 4          # enumerated domain detected
        assert agg.rows_in == 10**9     # work still scales

    def test_growing_groups_scale(self):
        op = OpTrace("aggregate", rows_in=10**6, rows_out=10**5,
                     bytes_in=8 * 10**6, bytes_out=8 * 10**5,
                     groups=10**5)
        trace = make_trace(sf=1.0, ops=[op])
        scaled = scale_trace(trace, 100.0)
        assert scaled.ops[0].groups == 10**7

    def test_explicit_domain_cap(self):
        op = OpTrace("aggregate", rows_in=2000, rows_out=40,
                     bytes_in=16000, bytes_out=640, groups=40)
        trace = make_trace(query="qx", sf=1.0, ops=[op])
        scaled = scale_trace(trace, 100.0, group_domains={"qx": 7})
        assert scaled.ops[0].groups == 7

    def test_zero_sf_rejected(self):
        trace = QueryTrace(scale_factor=0)
        with pytest.raises(ValueError):
            scale_trace(trace, 10.0)


class TestHostModel:
    def test_io_bound_query(self):
        model = SystemModel(HOST_L)
        trace = make_trace(flash_gb=240.0)  # 100 s of flash at 2.4 GB/s
        timing = model.time_query(trace)
        assert timing.io_s == pytest.approx(
            240 * GB / BASELINE_READ_BANDWIDTH
        )
        assert timing.runtime_s >= timing.io_s

    def test_more_threads_help_cpu_bound(self):
        heavy = OpTrace("join", rows_in=10**9, rows_out=10**9,
                        bytes_in=8 * 10**9, bytes_out=8 * 10**9)
        trace = make_trace(flash_gb=0.001, ops=[heavy])
        s = SystemModel(HOST_S).time_query(trace)
        large = SystemModel(HOST_L).time_query(trace)
        assert large.runtime_s < s.runtime_s

    def test_amdahl_limits_scaling(self):
        heavy = OpTrace("join", rows_in=10**9, rows_out=10**9,
                        bytes_in=8 * 10**9, bytes_out=8 * 10**9)
        trace = make_trace(flash_gb=0.001, ops=[heavy])
        s = SystemModel(HOST_S).time_query(trace)
        large = SystemModel(HOST_L).time_query(trace)
        assert s.runtime_s / large.runtime_s < 8  # not the 8x thread ratio

    def test_swap_penalty_over_dram(self):
        small = SystemModel(HOST_S)  # 16 GB DRAM
        fits = small.time_query(make_trace(peak_gb=10))
        swaps = small.time_query(make_trace(peak_gb=50))
        assert swaps.swap_s > 0
        assert fits.swap_s == 0

    def test_serial_aggregate_penalty(self):
        big_groups = OpTrace("aggregate", rows_in=10**9, rows_out=10**8,
                             bytes_in=0, bytes_out=0, groups=10**8)
        few_groups = OpTrace("aggregate", rows_in=10**9, rows_out=10,
                             bytes_in=0, bytes_out=0, groups=10)
        slow = SystemModel(HOST_L).time_query(
            make_trace(ops=[big_groups])
        )
        fast = SystemModel(HOST_L).time_query(
            make_trace(ops=[few_groups])
        )
        assert slow.cpu_s > 3 * fast.cpu_s

    def test_assisted_aggregate_beats_serial(self):
        serial = OpTrace("aggregate", rows_in=10**9, rows_out=10**8,
                         bytes_in=0, bytes_out=0, groups=10**8)
        assisted = OpTrace("aggregate", rows_in=10**9, rows_out=10**8,
                           bytes_in=0, bytes_out=0, groups=10**8,
                           assisted=True)
        t_serial = SystemModel(HOST_L).time_query(make_trace(ops=[serial]))
        t_assisted = SystemModel(HOST_L).time_query(
            make_trace(ops=[assisted])
        )
        assert t_assisted.cpu_s < t_serial.cpu_s / 5


class TestDeviceModel:
    def test_device_time_from_flash_stream(self):
        model = SystemModel(HOST_S, AQUOMAN_40GB)
        trace = make_trace(flash_gb=0.0, aq_flash_gb=240.0)
        timing = model.time_query(trace)
        assert timing.device_s == pytest.approx(100.0, rel=0.01)
        assert timing.device_fraction > 0.9

    def test_plain_host_has_no_device_time(self):
        timing = SystemModel(HOST_S).time_query(
            make_trace(aq_flash_gb=100)
        )
        assert timing.device_s == 0.0

    def test_system_names(self):
        assert SystemModel(HOST_S).name == "S"
        assert SystemModel(HOST_L, AQUOMAN_16GB).name == "L-AQUOMAN16"


class TestReport:
    def _traces(self):
        host = {"q01": make_trace("q01", flash_gb=10)}
        aq = {"q01": make_trace("q01", flash_gb=1, aq_flash_gb=9)}
        return host, aq

    def test_report_has_all_systems(self):
        host, aq = self._traces()
        report = run_evaluation(host, aq, target_sf=1.0)
        assert set(report.systems) == {
            "S", "L", "S-AQUOMAN", "L-AQUOMAN", "S-AQUOMAN16",
        }
        assert report.total_runtime("S") > 0

    def test_cpu_saving_definition(self):
        host, aq = self._traces()
        report = run_evaluation(host, aq, target_sf=1.0)
        saving = report.cpu_saving("q01")
        assert 0.0 <= saving <= 1.0

    def test_rows_flatten(self):
        host, aq = self._traces()
        report = run_evaluation(host, aq, target_sf=1.0)
        rows = report.rows()
        assert len(rows) == 5
        assert {"query", "system", "runtime_s"} <= set(rows[0])
