"""The ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import main
from repro.engine.procpool import process_backend_available
from repro.obs import validate_chrome_trace


class TestCli:
    def test_query_by_number(self, capsys):
        assert main(["query", "6", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "match=True" in out
        assert "rows-on-device=100%" in out

    def test_query_from_sql(self, capsys):
        code = main(
            [
                "query",
                "--sql",
                "SELECT count(*) AS n FROM orders",
                "--sf",
                "0.002",
                "--no-device",
            ]
        )
        assert code == 0
        assert "3000" in capsys.readouterr().out

    def test_query_requires_a_source(self):
        with pytest.raises(SystemExit):
            main(["query", "--sf", "0.002"])

    @pytest.mark.parametrize("sql,message", [
        ("SELECT FROM", "error: unexpected keyword 'from'"),
        ("SELECT count(*) AS n FROM nope", "error: no table 'nope'"),
    ])
    def test_bad_sql_is_one_error_line(self, capsys, sql, message):
        assert main(["query", "--sql", sql, "--sf", "0.001"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_explain(self, capsys):
        assert main(["explain", "9", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "string heap exceeds regex cache" in out
        assert "[DEVICE]" in out

    def test_evaluate_smoke(self, capsys):
        assert main(["evaluate", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "mean CPU saving" in out
        assert "q22" in out

    def test_profile_exports_valid_trace(self, capsys, tmp_path):
        trace = tmp_path / "q06.trace.json"
        metrics = tmp_path / "q06.prom"
        code = main(
            [
                "profile", "6", "--sf", "0.002",
                # pinned below the tuned default so the tiny SF still
                # fans out into worker lanes
                "--morsel-rows", "8192",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span coverage" in out
        assert "self%" in out  # the flame summary printed

        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        lanes = doc["otherData"]["lanes"]
        assert "device.row_selector" in lanes
        assert doc["otherData"]["coverage"] > 0.95

        prom = metrics.read_text()
        assert "# TYPE repro_" in prom

        if not process_backend_available():
            pytest.skip("no fork start method: spans ran inline")
        assert any(lane.startswith("proc-worker") for lane in lanes)

    def test_profile_warns_on_dropped_spans(self, capsys, tmp_path):
        code = main(
            [
                "profile", "6", "--sf", "0.002",
                "--ring-capacity", "4",
                "--trace-out", str(tmp_path / "q06.trace.json"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "WARNING:" in captured.err
        assert "spans dropped by ring wrap-around (profile)" in (
            captured.err
        )
        assert "coverage undercounts" in captured.out

    def test_doctor_warns_about_dropped_spans_once(self, capsys):
        code = main(["doctor", "6", "--sf", "0.001", "--ring-capacity", "8"])
        assert code == 0
        captured = capsys.readouterr()
        assert (captured.out + captured.err).count("spans dropped") == 1

    def test_options_in_the_docstring_exist(self, capsys):
        # An option belongs to the last command named before it.
        import repro.__main__ as cli

        command, checked = None, 0
        for token in re.findall(r"``([^`]+)``", cli.__doc__):
            if re.fullmatch(r"[a-z]+( [a-z]+)?", token):
                command = token.split()
            elif token.startswith("--"):
                with pytest.raises(SystemExit):
                    main([*command, "--help"])
                out = capsys.readouterr().out
                assert token.split()[0] in out, (command, token)
                checked += 1
        assert checked >= 8

    def test_query_with_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "q01.trace.json"
        code = main(
            [
                "query", "1", "--sf", "0.002", "--no-device",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "engine.query" in names


class TestQueryLogCli:
    def _run_log(self, tmp_path, name="qlog.jsonl", extra=()):
        log = tmp_path / name
        code = main([
            "query", "6", "--sf", "0.002",
            "--query-log", str(log), *extra,
        ])
        assert code == 0
        return [
            json.loads(line) for line in log.read_text().splitlines()
        ]

    def test_query_log_events_validate(self, capsys, tmp_path):
        from repro.obs import validate_wide_event

        events = self._run_log(tmp_path)
        # host engine run + device simulator run
        assert [e["backend"] for e in events] == ["serial", "device"]
        for event in events:
            assert validate_wide_event(event) == []
            assert event["critpath"] is not None
        assert "query log:" in capsys.readouterr().err

    def test_tail_sampling_writes_traces(self, capsys, tmp_path):
        events = self._run_log(
            tmp_path,
            extra=[
                "--qlog-sample-k", "2",
                "--qlog-trace-dir", str(tmp_path / "traces"),
            ],
        )
        kept = [e for e in events if e["trace_path"]]
        assert kept
        for event in kept:
            with open(event["trace_path"]) as fh:
                doc = json.load(fh)
            assert validate_chrome_trace(doc) == []

    def test_profile_query_log_writes_events(self, capsys, tmp_path):
        from repro.obs import validate_wide_event

        log = tmp_path / "profile.jsonl"
        assert main([
            "profile", "6", "--sf", "0.002", "--no-device",
            "--trace-out", str(tmp_path / "q06.trace.json"),
            "--query-log", str(log),
        ]) == 0
        events = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert events
        for event in events:
            assert validate_wide_event(event) == []
            assert event["critpath"] is not None

    def test_tracediff_self_is_clean(self, capsys, tmp_path):
        self._run_log(tmp_path)
        log = str(tmp_path / "qlog.jsonl")
        assert main(["tracediff", log, log]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out
        assert "+0.00ms" in out

    def test_tracediff_strict_flags_inflation(self, capsys, tmp_path):
        events = self._run_log(tmp_path)
        inflated = tmp_path / "inflated.jsonl"
        with open(inflated, "w") as fh:
            for event in events:
                event = dict(event)
                event["wall_ms"] *= 4.0
                fh.write(json.dumps(event) + "\n")
        log = str(tmp_path / "qlog.jsonl")
        assert main(["tracediff", log, str(inflated), "--strict"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tracediff_json_output(self, capsys, tmp_path):
        self._run_log(tmp_path)
        capsys.readouterr()  # drop the query run's own output
        log = str(tmp_path / "qlog.jsonl")
        assert main(["tracediff", log, log, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_regressions"] == 0
        assert doc["total_wall_delta_ms"] == 0.0

    def test_chaos_query_log(self, capsys, tmp_path):
        from repro.obs import validate_wide_event

        log = tmp_path / "chaos.jsonl"
        code = main([
            "chaos", "6", "--campaign", "1", "--sf", "0.002",
            "--query-log", str(log),
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0
        events = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        # one host + one device event per (query, seed), refs excluded
        assert len(events) == 2
        for event in events:
            assert validate_wide_event(event) == []
            assert event["seed"] == 0


class TestServeCli:
    def test_serve_help_is_generated_from_route_table(self, capsys):
        from repro.obs.server import ROUTES, route_summary

        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        # argparse wraps mid-path at hyphens: compare without spaces.
        out = "".join(capsys.readouterr().out.split())
        # The help text is derived from ROUTES, so it can never go
        # stale against the handler again.
        assert route_summary().replace(" ", "") in out
        for path in ROUTES:
            assert path in out
