"""The ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import main
from repro.engine.procpool import process_backend_available
from repro.obs import validate_chrome_trace, validate_wide_event


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

    @pytest.mark.parametrize("argv,message", [
        (["query", "23"], "invalid choice: 23 (choose from 1, 2,"),
        (["doctor", "23"], "invalid choice: 23 (choose from 1, 2,"),
        (["analyze", "99"], "invalid choice: 99 (choose from 1, 2,"),
        (["query", "6", "--sf", "0"], "--sf: must be a positive number"),
        (["chaos", "6"], "invalid choice: 'chaos'"),
        # Observability flags that left with the Prometheus file and
        # tail sampling: a run is its wide events and its Chrome trace.
        (["query", "6", "--metrics-out", "m.prom"],
         "unrecognized arguments: --metrics-out"),
        (["query", "6", "--qlog-sample-k", "2"],
         "unrecognized arguments: --qlog-sample-k"),
        (["evaluate", "--qlog-trace-dir", "traces"],
         "unrecognized arguments: --qlog-trace-dir"),
    ])
    def test_bad_argument_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert message in err
        assert "Traceback" not in err

    def test_doctor_offload_column(self, capsys):
        assert main(["doctor", "9", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "host <- string heap exceeds regex cache" in out
        assert " DEVICE\n" in out

    def test_evaluate_smoke(self, capsys):
        assert main(["evaluate", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "mean CPU saving" in out
        assert "q22" in out

    @pytest.mark.parametrize("ring", [None, 8])
    def test_doctor_exports_valid_trace(self, capsys, tmp_path, ring):
        trace = tmp_path / "q06.trace.json"
        argv = [
            "doctor", "6", "--sf", "0.002",
            # pinned below the tuned default so the tiny SF still
            # fans out into worker lanes
            "--morsel-rows", "8192",
            "--trace-out", str(trace),
        ]
        if ring is not None:
            argv += ["--ring-capacity", str(ring)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "explain-analyze" in captured.out
        # One warning however many exports the run writes.
        dropped = (captured.out + captured.err).count("spans dropped")
        assert dropped == (0 if ring is None else 1)

        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["query"] == "q06"
        if ring is not None:
            return
        lanes = doc["otherData"]["lanes"]
        assert "device.row_selector" in lanes

        if not process_backend_available():
            pytest.skip("no fork start method: spans ran inline")
        assert any(lane.startswith("proc-worker") for lane in lanes)

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
        assert checked >= 6

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
        events = self._run_log(tmp_path)
        # host engine run + device simulator run
        assert [e["backend"] for e in events] == ["serial", "device"]
        for event in events:
            assert validate_wide_event(event) == []
            assert event["critpath"] is not None
        assert "query log:" in capsys.readouterr().err

    def test_every_event_is_in_the_trace(self, capsys, tmp_path):
        # The run's two records agree: each wide event's query_id is a
        # span qid in the whole-run Chrome trace.
        trace = tmp_path / "run.trace.json"
        events = self._run_log(
            tmp_path, extra=["--trace-out", str(trace)]
        )
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        qids = {
            e["args"]["qid"] for e in doc["traceEvents"]
            if "qid" in e.get("args", {})
        }
        assert len(events) == 2
        assert {e["query_id"] for e in events} <= qids
