"""Tests of the benchmark harness itself (not of the program).

    python -m pytest bench -q

Everything runs at SF 0.002 and finishes well inside 30 s.  Tier-1
(``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest
from calib import (
    INTERPRETER_NOMINAL_MS,
    KERNEL_CHECKSUM,
    NUMERIC_NOMINAL_MS,
    Kernel,
    slowdown,
)
from check import digest, mismatch
from harness import (
    OUT_DIR,
    Interval,
    measure,
    summarise_queries,
)
from layers import END_TO_END, PASS_LAYERS, PER_LAYER, pass_layer_ms
from workloads import SQL_FILE, WORKLOADS, render_sql

from repro import tpch

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_SF = 0.002


def tiny(name: str, **changes):
    return dataclasses.replace(
        WORKLOADS[name], scale_factor=TINY_SF, **changes
    )


# -- calibration -----------------------------------------------------------


def test_kernel_checksum_is_frozen():
    assert Kernel().run() == KERNEL_CHECKSUM
    kernel = Kernel()
    assert kernel.run() == kernel.run() == KERNEL_CHECKSUM


def test_reference_time_scaling():
    numeric, interp = NUMERIC_NOMINAL_MS / 1e3, INTERPRETER_NOMINAL_MS / 1e3
    for share in (0.0, 0.3, 1.0):
        assert slowdown(numeric, interp, share) == pytest.approx(1.0)
        # A machine running both parts 25 % slow is 25 % slow.
        assert slowdown(
            numeric * 1.25, interp * 1.25, share
        ) == pytest.approx(1.25)
    # Parts that slow differently weigh in by the workload's share.
    assert slowdown(numeric, interp * 2, 0.25) == pytest.approx(1.25)
    interval = Interval(0.25, kernel=[
        (numeric * 0.5, interp * 2), (numeric * 1.5, interp * 2),
    ])
    assert interval.slowdown == pytest.approx(1.25)
    assert interval.ref(2.5) == pytest.approx(2.0)


# -- estimators ------------------------------------------------------------


def test_estimators_on_synthetic_samples():
    samples = {
        "a": [0.010, 0.012, 0.500],     # one outlier: median ignores it
        "b": [0.040, 0.040, 0.040],
        "c": [0.160, 0.150, 0.170],
    }
    summary = summarise_queries(samples)
    assert summary["pass_s"] == pytest.approx(0.012 + 0.040 + 0.160)
    assert summary["query_ms_max"] == pytest.approx(160.0)
    assert summary["query_ms_geomean"] == pytest.approx(
        1e3 * (0.012 * 0.040 * 0.160) ** (1 / 3)
    )


def test_layer_self_times_partition_a_pass():
    # (name, lane, t0, dur, depth, self, args): a query span holding an
    # engine span holding a scan; the kernel and an unknown span aside.
    records = [
        ("engine.scan", None, 120, 30, 2, 30, None),
        ("engine.execute", None, 110, 80, 1, 50, None),
        ("mystery.span", None, 191, 5, 1, 5, None),
        ("bench.query", None, 100, 100, 0, 15, None),
        ("bench.calib", None, 210, 50, 0, 50, None),
    ]
    layer_ms = pass_layer_ms(records)
    assert layer_ms["engine.scan_ms"] == pytest.approx(30e-6)
    assert layer_ms["engine.other_ms"] == pytest.approx(55e-6)
    assert math.fsum(layer_ms.values()) == pytest.approx(85e-6)


# -- names and the contract file ---------------------------------------------


def test_benchmark_json_lists_exactly_the_harness_names():
    spec = json.loads((OUT_DIR.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)
    names = [m[0] for m in (*END_TO_END, *PER_LAYER)] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in dict((m[0], m) for m in END_TO_END)
    assert all(0 < m[3] <= 0.25 for m in END_TO_END)
    assert spec["paths"] == ["bench"]


# -- seeds -------------------------------------------------------------------


def test_seed_changes_literals_and_data_and_nothing_else():
    template = SQL_FILE.read_text()
    one, again, two = (render_sql(template, s) for s in (1, 1, 2))
    assert one == again
    assert list(one) == list(two) and len(one) >= 24
    assert sum(one[n] != two[n] for n in one) >= 20
    assert not any("{" in sql for sql in one.values())
    # Same statement skeletons: only literals moved.
    strip = re.compile(r"'[^']*'|-?\d+(\.\d+)?")
    assert [strip.sub("?", s) for s in one.values()] == [
        strip.sub("?", s) for s in two.values()
    ]
    tables = [
        tpch.generate(TINY_SF, seed).table("orders") for seed in (1, 1, 2)
    ]
    assert mismatch(digest(tables[0]), digest(tables[1])) is None
    assert mismatch(digest(tables[0]), digest(tables[2])) is not None


# -- whole runs --------------------------------------------------------------


def _check_report(report, traced: bool):
    assert report.failures == []
    assert report.correct and report.attempted > 0
    assert set(report.end_to_end) == {m[0] for m in END_TO_END}
    assert all(v > 0 for v in report.end_to_end.values())
    if traced:
        printed = {**report.per_layer, **report.harness}
        assert set(printed) == {m[0] for m in PER_LAYER}
        assert 95.0 <= report.per_layer["harness.layer_sum_pct"] <= 105.0


def test_traced_sql_adhoc_prints_every_layer_and_layers_sum_up():
    report = measure(tiny("sql_adhoc", passes=3), seed=1, seconds=0.1,
                     trace=True)
    _check_report(report, traced=True)
    for layer in ("sqlir.plan_ms", "sqlir.parse_ms", "analysis.gate_ms",
                  "engine.other_ms", "storage.load_ms"):
        assert report.per_layer[layer] > 0
    assert (OUT_DIR / "sql_adhoc.trace.json").is_file()
    assert not list(OUT_DIR.glob("sql_adhoc-*"))   # temp catalog gone


def test_traced_device_and_stream_paths():
    device = measure(tiny("tpch_device", passes=1), seed=3, seconds=0.1,
                     trace=True)
    _check_report(device, traced=True)
    assert device.per_layer["core.compile_ms"] > 0
    assert device.per_layer["core.host_fallback_ms"] > 0
    assert device.per_layer["flash.bytes_device"] > 0
    stream = measure(tiny("tpch_stream", passes=1), seed=3, seconds=0.1,
                     trace=True)
    _check_report(stream, traced=True)
    assert stream.per_layer["engine.procpool_pass_s"] > 0
    assert stream.per_layer["analysis.full_ms"] > 0
    unmapped = set(PASS_LAYERS) - set(stream.per_layer)
    assert not unmapped


def test_untraced_host_run_matches_nothing_but_the_gated_names():
    report = measure(tiny("tpch_host", passes=1, digests=False), seed=1,
                     seconds=0.1)
    _check_report(report, traced=False)
    assert report.per_layer is None
    assert report.harness["harness.rounds"] >= 6


def test_selfcheck_makes_the_checker_fail():
    report = measure(tiny("sql_adhoc", passes=1), seed=1, seconds=0.1,
                     selfcheck=True)
    assert not report.correct
    assert any("result mismatch" in f for f in report.failures)
    assert any("simulated totals" in f for f in report.failures)
