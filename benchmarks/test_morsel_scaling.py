"""Morsel streaming throughput: rows/sec vs workers and morsel size.

A Q6-class scan (selective filter + int-SUM reduction over lineitem)
through the engine's morsel path: inline spans (``serial``) against
the forked pool (``process``) at 2 and 4 workers, plus a morsel-size
sweep at one worker.  The process backend forks genuinely concurrent
interpreters over shared column pages, so on a host with at least
:data:`MIN_SCALING_CORES` cores it must show real scaling (the
acceptance bar: ≥2.5x at 4 workers).  Below that no backend can scale
— IPC without spare cores is pure overhead — so the worker sweep is
not run and the artifact says ``"scaling": "not measured"`` next to
``cpu_count`` instead of publishing sub-1x "speedups".  The sweep is
emitted as ``BENCH_morsel_scaling.json`` next to the other ``BENCH_*``
artifacts.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import print_table
from repro.engine import Engine, MorselConfig
from repro.engine.morsel import MAX_FRAGMENT_MORSELS, TUNED_MORSEL_ROWS
from repro.engine.procpool import process_backend_available
from repro.sqlir import AggFunc, col, lit, lit_date, scan

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_morsel_scaling.json"

WORKER_SWEEP = (2, 4)
MIN_SCALING_CORES = 4
MORSEL_SWEEP = (8192, 16384, 32768)
REPEATS = 3


def _q6_class_plan():
    return (
        scan("lineitem")
        .filter(
            (col("l_shipdate") >= lit_date("1994-01-01"))
            & (col("l_shipdate") < lit_date("1995-01-01"))
            & (col("l_quantity") < lit(24))
        )
        .aggregate(
            aggs=[
                ("n", AggFunc.COUNT, None),
                ("qty", AggFunc.SUM, col("l_quantity")),
            ]
        )
        .plan
    )


def _rows_per_sec(db, morsel_rows, n_workers=1):
    engine = Engine(
        db,
        morsels=MorselConfig(
            parallel=True,
            morsel_rows=morsel_rows,
            n_workers=n_workers,
        ),
    )
    plan = _q6_class_plan()
    nrows = db.table("lineitem").nrows
    # Warm once outside the clock: forks the pool (process backend) and
    # faults the column pages in.
    engine.execute_relation(plan)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.execute_relation(plan)
        best = min(best, time.perf_counter() - start)
    return nrows / best, result


def test_morsel_scaling(benchmark, db):
    cpus = os.cpu_count() or 1
    measured = cpus >= MIN_SCALING_CORES and process_backend_available()

    def run():
        serial, reference = _rows_per_sec(db, 8192)
        process = {}
        for n_workers in WORKER_SWEEP if measured else ():
            process[n_workers], rel = _rows_per_sec(db, 8192, n_workers)
            assert np.array_equal(
                rel.column("qty").values,
                reference.column("qty").values,
            )
        sizes = {rows: _rows_per_sec(db, rows)[0] for rows in MORSEL_SWEEP}
        return serial, process, sizes

    serial, process, sizes = benchmark.pedantic(run, rounds=1, iterations=1)

    if measured:
        print_table(
            "Morsel scaling [process]: rows/sec vs workers "
            "(morsel_rows=8192)",
            ["workers", "M rows/s", "speedup vs serial"],
            [[1, f"{serial / 1e6:.2f}", "1.00x (serial)"]] + [
                [n, f"{process[n] / 1e6:.2f}", f"{process[n] / serial:.2f}x"]
                for n in WORKER_SWEEP
            ],
        )
        scaling = {
            "backend": "process",
            "rows_per_sec_by_workers": {
                str(n): process[n] for n in WORKER_SWEEP
            },
            "speedup_4_vs_serial": process[4] / serial,
        }
    else:
        print(f"morsel scaling not measured: cpu_count={cpus} "
              f"< {MIN_SCALING_CORES} (or no fork)")
        scaling = "not measured"
    print_table(
        "Morsel scaling: rows/sec vs morsel size (1 worker)",
        ["morsel_rows", "M rows/s"],
        [[rows, f"{sizes[rows] / 1e6:.2f}"] for rows in MORSEL_SWEEP],
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "morsel_scaling",
                "query": "q6-class filter + int-SUM over lineitem",
                "lineitem_rows": db.table("lineitem").nrows,
                "cpu_count": cpus,
                "repeats_best_of": REPEATS,
                "rows_per_sec_serial": serial,
                "scaling": scaling,
                "rows_per_sec_by_morsel_rows": {
                    str(r): sizes[r] for r in MORSEL_SWEEP
                },
                # the retune the size sweep justifies (satellite of the
                # process-backend PR): CLI defaults moved 8192 -> 32768
                "tuned_morsel_rows": TUNED_MORSEL_ROWS,
                "max_fragment_morsels": MAX_FRAGMENT_MORSELS,
            },
            indent=2,
        )
        + "\n"
    )

    if measured:
        # The acceptance bar: genuinely concurrent interpreters must
        # scale on real cores.
        assert process[4] >= 2.5 * serial, (
            f"process 4-worker speedup {process[4] / serial:.2f}x < 2.5x"
        )
    # Bigger morsels amortise dispatch; the sweep must not be wildly
    # inverted (tiny morsels an order of magnitude faster is a bug).
    assert sizes[32768] >= 0.3 * sizes[8192]
