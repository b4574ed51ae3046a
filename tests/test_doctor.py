"""The query doctor: bottleneck verdicts, explain-analyze, scorecards.

Pins the PR's acceptance criteria: q06's bottleneck is flash I/O with
at least one what-if projection, the explain-analyze table carries zero
mispredictions, and the suspend scorecard agrees with the simulator on
all 22 TPC-H queries at the test scale factor.

The doctor's decomposition is the performance model's own: the
components are ``SystemModel.time_query`` / ``device_terms`` values, and
the modeled runtime, what-if runtimes and bottleneck of q1/q6/q18 are
pinned to ``fixtures/doctor_golden.json``, written at the commit where
the doctor still re-typed the model.  ``python tests/test_doctor.py``
rewrites that file from whatever ``repro`` is on ``PYTHONPATH``.
"""

import json
from pathlib import Path

import pytest

from repro import tpch
from repro.analysis import analyze_plan
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine.procpool import process_backend_available
from repro.obs import doctor
from repro.obs.doctor import diagnose, report_json, suspend_scorecard
from repro.perf.model import SystemModel
from repro.perf.scaling import scale_trace
from repro.perf.tpch_eval import GROUP_DOMAINS
from repro.util.units import GB

CONFIG = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1000 / 0.01)
GOLDEN = Path(__file__).parent / "fixtures" / "doctor_golden.json"
MODEL_QUERIES = (1, 6, 18)


def _diagnose(db, n: int):
    return diagnose(
        db, tpch.query(n), f"q{n:02d}", morsel_rows=8192,
        backend="serial",
    )


def model_record(report) -> dict:
    return {
        "bottleneck": report.bottleneck,
        "modeled_runtime_s": report.modeled_runtime_s,
        "what_ifs": {w.name: w.runtime_s for w in report.what_ifs},
    }


class TestDoctorQ6:
    @pytest.fixture(scope="class")
    def report(self, small_db):
        return diagnose(
            small_db, tpch.query(6), "q06", morsel_rows=8192
        )

    def test_flash_io_is_the_bottleneck(self, report):
        assert report.bottleneck == "flash_io"
        assert report.components["flash_io"] > 0
        assert report.modeled_runtime_s > 0

    def test_has_what_if_projections(self, report):
        names = {w.name for w in report.what_ifs}
        assert "2x_flash_channels" in names
        assert "2x_morsel_workers" in names
        assert "device_off" in names
        flash = next(
            w for w in report.what_ifs
            if w.name == "2x_flash_channels"
        )
        # Doubling channels on a flash-bound query must help.
        assert flash.speedup > 1.0
        assert all(w.runtime_s > 0 for w in report.what_ifs)

    def test_zero_mispredictions(self, report):
        assert report.mispredictions == 0
        assert report.explain  # table is non-empty
        assert all(row["ok"] for row in report.suspend)

    def test_explain_covers_every_plan_node(self, report):
        plan_nodes = sum(1 for _ in tpch.query(6).walk())
        assert len(report.explain) == plan_nodes
        scan = next(r for r in report.explain if r["op"] == "scan")
        assert scan["flash_bytes"] > 0
        assert scan["streamed"] and scan["offloaded"]
        assert scan["device_rows_out"] == 59870
        # The streamed fragment's rows land on its root aggregate.
        agg = next(
            r for r in report.explain if r["op"] == "aggregate"
        )
        assert agg["rows_out"] == 1
        assert not any(r["mispredicted"] for r in report.explain)
        # Q6 runs on the device end to end (the offload column).
        assert all(
            r["offload"] == {"device": True, "reason": None}
            for r in report.explain
        )

    def test_fragment_census_lands_on_the_fragment_root(self, report):
        agg, *rest = report.explain
        assert agg["op"] == "aggregate" and agg["streamed"]
        # Q6: five CP terms absorb the whole predicate, and an
        # aggregate without keys never passes a span through.
        assert agg["fragment"] == {
            "rows_in": 59870, "cp_terms": 5, "leftover_columns": 0,
            "passthrough_spans": 0,
        }
        assert not any("fragment" in row for row in rest)
        assert (
            "fragment: rows_in=59870 cp_terms=5 leftover_columns=0 "
            "passthrough_spans=0"
        ) in report.format()
        doc = json.loads(report_json(report))
        assert doc["explain"][0]["fragment"] == agg["fragment"]

    def test_lane_utilization_and_path_invariants(self, report):
        crit = report.crit
        assert crit.path_ns == crit.wall_ns
        assert sum(crit.attribution.values()) == pytest.approx(1.0)
        util = crit.lane_utilization()
        if not process_backend_available():
            pytest.skip("no fork start method: spans ran inline")
        assert any(k.startswith("proc-worker") for k in util)

    def test_format_sections(self, report):
        text = report.format()
        assert "bottleneck: flash_io" in text
        assert "what-if projections:" in text
        assert "lane utilization:" in text
        assert "explain-analyze" in text
        assert "suspend verdicts" in text
        assert "0 misprediction(s)" in text
        # A fixed report formats identically every time.
        assert report.format() == text

    def test_json_round_trips(self, report):
        doc = json.loads(report_json(report))
        assert doc["query"] == "q06"
        assert doc["bottleneck"] == "flash_io"
        assert doc["what_ifs"]
        assert doc["explain"]


class TestComponentsAreTheModels:
    """The doctor reads ``SystemModel``'s decomposition; it has none."""

    @pytest.fixture(scope="class")
    def inputs(self, small_db):
        """``build_report``'s keyword arguments, per query."""
        captured = {}
        build = doctor.build_report
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                doctor, "build_report",
                lambda **kw: captured.update(kw) or build(**kw),
            )
            out = {}
            for n in MODEL_QUERIES:
                _diagnose(small_db, n)
                out[n] = dict(captured)
            return out

    @staticmethod
    def _model_view(kw):
        scaled = scale_trace(
            kw["sim"].trace, kw["target_sf"], group_domains=GROUP_DOMAINS
        )
        model = SystemModel(kw["host"], kw["aquoman"])
        return model.time_query(scaled), model.device_terms(scaled)

    @pytest.mark.parametrize("n", MODEL_QUERIES)
    def test_components_and_runtimes(self, inputs, n):
        report = doctor.build_report(**inputs[n])
        timing, device = self._model_view(inputs[n])
        assert report.components == {
            "host_cpu": timing.cpu_s,
            "flash_io": timing.io_s + device["stream"],
            "swissknife": device["sorter"],
            "dma": device["dma"],
            "swap": timing.swap_s,
            "overhead": 0.5,
        }
        assert report.modeled_runtime_s == timing.runtime_s
        assert timing.device_s == sum(device.values())
        # ... and nothing moved when the doctor stopped re-typing it.
        golden = json.loads(GOLDEN.read_text())[f"q{n:02d}"]
        record = model_record(report)
        assert record["bottleneck"] == golden["bottleneck"]
        assert record["modeled_runtime_s"] == pytest.approx(
            golden["modeled_runtime_s"], rel=1e-12
        )
        assert record["what_ifs"] == pytest.approx(
            golden["what_ifs"], rel=1e-12
        )

    def test_device_fault_stall_is_accounted(self, inputs):
        kw = inputs[6]
        clean = doctor.build_report(**kw)
        kw["sim"].trace.aquoman_fault_stall_s = 2e-5  # at SF 0.01
        try:
            stalled = doctor.build_report(**kw)
        finally:
            kw["sim"].trace.aquoman_fault_stall_s = 0.0
        extra = stalled.components["flash_io"] - clean.components["flash_io"]
        assert extra == pytest.approx(2.0)  # scaled to SF 1000
        assert stalled.modeled_runtime_s - clean.modeled_runtime_s == (
            pytest.approx(extra)
        )


class TestSuspendScorecardAllQueries:
    @pytest.fixture(scope="class")
    def scorecards(self, small_db):
        out = {}
        for n in tpch.ALL_QUERIES:
            plan = tpch.query(n)
            report = analyze_plan(plan, small_db, device=CONFIG)
            sim = AquomanSimulator(small_db, CONFIG).run(plan)
            out[n] = suspend_scorecard(report, sim)
        return out

    @pytest.mark.parametrize("n", tpch.ALL_QUERIES)
    def test_zero_suspend_mispredictions(self, scorecards, n):
        rows = scorecards[n]
        assert rows, f"q{n}: empty scorecard"
        bad = [r for r in rows if not r["ok"]]
        assert not bad, f"q{n}: {bad}"


class TestDoctorCli:
    def test_doctor_command(self, capsys):
        from repro.__main__ import main

        assert main(["doctor", "6", "--sf", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck: flash_io" in out
        assert "what-if projections:" in out
        assert "lane utilization:" in out

    def test_doctor_json(self, capsys):
        from repro.__main__ import main

        code = main(
            ["doctor", "1", "--sf", "0.01", "--json", "--strict"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["query"] == "q01"
        assert doc["mispredictions"] == 0


if __name__ == "__main__":
    db = tpch.generate(0.01)
    GOLDEN.write_text(json.dumps(
        {f"q{n:02d}": model_record(_diagnose(db, n)) for n in MODEL_QUERIES},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
