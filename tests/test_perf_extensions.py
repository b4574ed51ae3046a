"""Scale-out models, Fig. 17 validation helpers, the evaluation driver."""

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.perf.model import (
    AQUOMAN_40GB,
    HOST_L,
    HOST_S,
    QUERY_OVERHEAD_S,
    SystemModel,
)
from repro.perf.scaleout import (
    MultiDeviceModel,
    concurrent_makespan,
)
from repro.perf.scaling import scale_trace
from repro.perf.tpch_eval import GROUP_DOMAINS, collect_traces
from repro.perf.trace import OpTrace, QueryTrace
from repro.perf.validation import (
    prototype_device_seconds,
    prototype_stage_seconds,
    validate_device_timing,
)
from repro.util.units import GB


def offloaded_trace(flash_gb=100.0, output_mb=1.0):
    trace = QueryTrace(query="q", scale_factor=1.0)
    trace.aquoman_flash_bytes = int(flash_gb * GB)
    trace.aquoman_output_bytes = int(output_mb * (1 << 20))
    return trace


class TestMultiDevice:
    def test_streaming_splits_across_devices(self):
        base = SystemModel(HOST_S, AQUOMAN_40GB)
        trace = offloaded_trace(flash_gb=240.0)
        one = MultiDeviceModel(base, 1).time_query(trace)
        four = MultiDeviceModel(base, 4).time_query(trace)
        assert four.device_s == pytest.approx(one.device_s / 4)
        assert four.runtime_s < one.runtime_s

    def test_merge_cost_grows_with_devices(self):
        base = SystemModel(HOST_S, AQUOMAN_40GB)
        trace = offloaded_trace(output_mb=1000.0)
        two = MultiDeviceModel(base, 2).time_query(trace)
        eight = MultiDeviceModel(base, 8).time_query(trace)
        assert eight.merge_s > two.merge_s

    def test_requires_aquoman_system(self):
        with pytest.raises(ValueError):
            MultiDeviceModel(SystemModel(HOST_S), 2)

    def test_requires_positive_devices(self):
        with pytest.raises(ValueError):
            MultiDeviceModel(SystemModel(HOST_S, AQUOMAN_40GB), 0)

    @pytest.mark.parametrize("target_sf", [None, 1000.0])
    def test_host_term_is_the_models_own(self, small_db, target_sf):
        # Scale-out used to back host_s out of runtime_s by subtraction;
        # it now reads QueryTiming.host_s.  Over the 22 SF-0.01 traces
        # both agree to 1e-12 of the query's runtime (the subtraction's
        # own cancellation error lives at that scale), and runtime_s to
        # 1e-12 relative.
        config = DeviceConfig(scale_ratio=1000.0 / small_db.scale_factor)
        base = SystemModel(HOST_S, AQUOMAN_40GB)
        for n in tpch.ALL_QUERIES:
            trace = AquomanSimulator(small_db, config).run(
                tpch.query(n)
            ).trace
            if target_sf is not None:
                trace = scale_trace(
                    trace, target_sf, group_domains=GROUP_DOMAINS
                )
            single = base.time_query(trace)
            subtracted = single.runtime_s - single.device_s \
                - QUERY_OVERHEAD_S
            for n_devices in (1, 4):
                got = MultiDeviceModel(base, n_devices).time_query(trace)
                assert got.host_s == pytest.approx(
                    subtracted, rel=0, abs=1e-12 * single.runtime_s
                )
                assert got.runtime_s == pytest.approx(
                    QUERY_OVERHEAD_S + got.device_s + subtracted
                    + got.merge_s,
                    rel=1e-12,
                )


class TestConcurrentMakespan:
    def _cpu_heavy_traces(self):
        traces = {}
        for i in range(4):
            trace = QueryTrace(query=f"q{i}", scale_factor=1.0)
            trace.record_op(
                OpTrace("join", rows_in=10**9, rows_out=10**9,
                        bytes_in=0, bytes_out=0)
            )
            traces[f"q{i}"] = trace
        return traces

    def test_cpu_bound_workload_identified(self):
        result = concurrent_makespan(
            SystemModel(HOST_S), self._cpu_heavy_traces()
        )
        assert result.binding_resource == "cpu"
        assert result.queries_per_hour > 0

    def test_device_offload_shifts_bottleneck(self):
        traces = {
            f"q{i}": offloaded_trace(flash_gb=240.0) for i in range(4)
        }
        result = concurrent_makespan(
            SystemModel(HOST_S, AQUOMAN_40GB), traces
        )
        assert result.binding_resource == "device"

    def test_latency_floor_with_few_streams(self):
        traces = {"q0": offloaded_trace(flash_gb=1.0)}
        result = concurrent_makespan(
            SystemModel(HOST_S, AQUOMAN_40GB), traces,
            n_concurrent_streams=1,
        )
        assert result.binding_resource == "latency"


class TestValidation:
    @pytest.fixture(scope="class")
    def q6_sim(self, small_db):
        cfg = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1e5)
        return AquomanSimulator(small_db, cfg).run(
            tpch.query(6), query="q06"
        )

    def test_prototype_estimate_positive(self, q6_sim):
        seconds = prototype_device_seconds(
            q6_sim.trace, q6_sim.device, scale_ratio=1e5
        )
        assert seconds > 0

    def test_every_stage_q6_uses_is_timed(self, q6_sim):
        """The Row Selector's counter is fed by the simulated run, so
        its stage is part of the estimate (it read 0 until the
        simulator ran Table Tasks)."""
        stages = prototype_stage_seconds(
            q6_sim.trace, q6_sim.device, scale_ratio=1e5
        )
        assert stages["selector"] > 0
        assert stages["transform"] > 0
        assert stages["flash"] > stages["selector"]  # flash still binds

    def test_two_models_agree_on_q6(self, q6_sim):
        pair = validate_device_timing(
            q6_sim.trace,
            q6_sim.device,
            scale_ratio=1e5,
            host_model=SystemModel(HOST_L, AQUOMAN_40GB),
        )
        assert pair.relative_error < 0.30

    def test_relative_error_of_empty_device_run(self):
        from repro.perf.validation import DeviceTimingPair

        pair = DeviceTimingPair("q", 0.0, 0.0)
        assert pair.relative_error == 0.0


class TestEvaluationDriver:
    def test_collect_traces_subset(self, small_db):
        evaluation = collect_traces(small_db, queries=(1, 6))
        assert set(evaluation.host_traces) == {"q01", "q06"}
        assert set(evaluation.aquoman_traces) == {"q01", "q06"}
        report = evaluation.report(1000.0)
        assert report.queries == ["q01", "q06"]
        assert report.total_runtime("L") > 0

    def test_16gb_traces_differ_where_dram_binds(self, small_db):
        evaluation = collect_traces(small_db, queries=(21,))
        t40 = evaluation.aquoman_traces["q21"]
        t16 = evaluation.aquoman16_traces["q21"]
        assert t40.aquoman_flash_bytes > 0
        assert "DRAM" in t16.suspend_reason or t16.suspended
        assert t16.aquoman_flash_bytes < t40.aquoman_flash_bytes
