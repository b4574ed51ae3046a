"""The query doctor: bottleneck verdicts, explain-analyze, scorecards.

Pins the PR's acceptance criteria: q06's bottleneck is flash I/O with
at least one what-if projection, the explain-analyze table carries zero
mispredictions, and the suspend scorecard agrees with the simulator on
all 22 TPC-H queries at the test scale factor.
"""

import json

import pytest

from repro import tpch
from repro.analysis import analyze_plan
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine.procpool import process_backend_available
from repro.obs.doctor import diagnose, report_json, suspend_scorecard
from repro.util.units import GB

CONFIG = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1000 / 0.01)


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
