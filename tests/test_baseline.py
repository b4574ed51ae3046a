"""The baseline comparison behind ``repro tracediff``, unit by unit:
the query log as the run store, median-of-N per fingerprint, and the
relative band and absolute floor a slowdown must clear to regress
(``tests/test_qlog.py::TestTraceDiff`` drives it end to end)."""

import pytest

from repro.obs import MetricsRegistry, QueryLog
from repro.obs.tracediff import (
    _medians,
    _regressed,
    diff_runs,
    load_wide_events,
)


def _event(wall_ms, fp="a" * 16, query="q06"):
    return {"query": query, "fingerprint": fp, "wall_ms": wall_ms}


class TestStore:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "qlog.jsonl")
        for wall in (100.0, 104.0):  # two runs append to one log
            log = QueryLog(path, registry=MetricsRegistry())
            log.emit(_event(wall))
            log.close()
        assert [e["wall_ms"] for e in load_wide_events(path)] == [
            100.0, 104.0,
        ]

    def test_load_reports_the_bad_line(self, tmp_path):
        path = tmp_path / "qlog.jsonl"
        path.write_text('{"wall_ms": 1.0}\n\nnot json\n')
        with pytest.raises(ValueError, match=r"qlog\.jsonl:3: bad wide event"):
            load_wide_events(str(path))

    def test_median_of_n(self):
        labels = {}
        medians = _medians(
            [_event(1.0), _event(9.0, query=""), _event(2.0)], labels
        )
        assert medians == {"a" * 16: {"wall_ms": 2.0}}
        assert labels == {"a" * 16: "q06"}


class TestCompare:
    def test_injected_regression_is_detected(self):
        assert _regressed(66.0, 72.6, 0.05, 0.5)  # +10% > 5% and 0.5 ms
        diff = diff_runs([_event(66.0)], [_event(72.6)], rel_band=0.05)
        assert [e.query for e in diff.regressions] == ["q06"]

    def test_unchanged_rerun_passes(self):
        assert not _regressed(66.0, 66.0, 0.0, 0.0)
        assert not _regressed(0.0, 0.0, 0.0, 0.0)

    def test_wall_band_absorbs_scheduler_noise(self):
        assert not _regressed(100.0, 108.0, 0.10, 0.5)
        assert not _regressed(10.0, 11.0, 0.10, 0.0)  # a tie is noise

    def test_threshold_override(self):
        assert _regressed(100.0, 108.0, 0.05, 0.5)
        assert diff_runs(
            [_event(100.0)], [_event(108.0)], rel_band=0.05
        ).regressions

    def test_absolute_floor_absorbs_tiny_queries(self):
        # +50% of a 0.2 ms query is 0.1 ms: under the 0.5 ms default
        # floor, so noise; a 0.05 ms floor lets the band decide.
        base, cur = [_event(0.2)], [_event(0.3)]
        assert diff_runs(base, cur).regressions == []
        assert diff_runs(base, cur, abs_band_ms=0.05).regressions
        assert not _regressed(0.0, 0.4, 0.10, 0.5)
        assert _regressed(0.0, 0.6, 0.10, 0.5)

    def test_faster_is_never_a_regression(self):
        assert not _regressed(100.0, 10.0, 0.0, 0.0)
