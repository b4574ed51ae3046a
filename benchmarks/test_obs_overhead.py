"""Observability overhead: disabled tracing must be free.

Every instrumentation point in the executors costs one attribute load
plus one no-op context manager when tracing is disabled (the default).
The gate multiplies that measured per-site cost by the number of span
sites a query actually executes (counted by running the same query
under a live tracer) and requires the product to stay under 2% of the
query's runtime.  That product is deterministic where a direct A/B
timing of millisecond-scale queries is noise-bound; the A/B ratio is
still reported informationally, along with the enabled-mode cost.

The query log is gated in absolute time: one ``query_scope`` cycle with
a log installed (context mint, plan fingerprint — computed once per
plan object — metrics delta, wide event build + JSONL append; sampling
off) is microbenchmarked per query and must stay under
``QLOG_BUDGET_US`` per event.  Its share of the disabled runtime
(``qlog_overhead_pct``) is still reported, but not gated: a percentage
of an ever-faster query fails every engine speed-up while the event
costs what it always did.  Budget from 5 runs of this file on the
2-core box (3 queries each, best of 5 x 200 cycles): 30-64 us per
event, median 47; the parent of the fingerprint memo measured 63-103 us
in 3 runs.  90 us is 1.4x the worst run seen and 1.9x the median.
Results land in ``BENCH_obs_overhead.json``.
"""

import json
import time
from pathlib import Path

from conftest import print_table
from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.obs import NULL_TRACER, Tracer

ARTIFACT = (
    Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"
)

REPEATS = 5
QUERIES = (1, 6, 14)
DISABLED_BUDGET_PCT = 2.0
QLOG_BUDGET_US = 90.0
NULL_SITE_CALLS = 200_000
QLOG_CYCLES = 200
# One _run_both = engine query + simulator run = two wide events.
EVENTS_PER_RUN = 2


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _null_site_ns() -> float:
    """Cost of one disabled instrumentation point, in nanoseconds."""
    span = NULL_TRACER.span

    def loop():
        for _ in range(NULL_SITE_CALLS):
            with span("x"):
                pass

    return _best_of(loop) / NULL_SITE_CALLS * 1e9


def _run_both(db, plan, name, tracer):
    Engine(db, tracer=tracer).execute_relation(plan)
    AquomanSimulator(
        db, DeviceConfig(scale_ratio=1000 / 0.01), tracer=tracer
    ).run(plan, query=name)


def _qlog_cycle_s(plan, name, tmp_path) -> float:
    """Cost of one full wide-event cycle for this query's plan."""
    from repro.obs.qlog import QueryLog, query_scope, set_query_log

    log = QueryLog(str(tmp_path / f"{name}.qlog.jsonl"))
    set_query_log(log)
    try:
        def loop():
            for _ in range(QLOG_CYCLES):
                with query_scope(plan, query=name, backend="serial"):
                    pass

        best = _best_of(loop)
    finally:
        set_query_log(None)
    return best / QLOG_CYCLES


def test_obs_overhead(benchmark, db, tmp_path):
    def run():
        site_ns = _null_site_ns()
        rows = {}
        for n in QUERIES:
            name = f"q{n:02d}"
            plan = tpch.query(n)
            disabled_s = _best_of(
                lambda p=plan: _run_both(db, p, name, None)
            )
            # Count the span sites this query executes: a live tracer
            # records exactly one tuple per site reached.
            counter = Tracer()
            _run_both(db, plan, name, counter)
            n_sites = counter.n_records
            enabled_s = _best_of(
                lambda p=plan: _run_both(db, p, name, Tracer())
            )
            disabled_pct = (
                n_sites * site_ns / (disabled_s * 1e9) * 100.0
            )
            cycle_s = _qlog_cycle_s(plan, name, tmp_path)
            qlog_pct = (
                EVENTS_PER_RUN * cycle_s / disabled_s * 100.0
            )
            rows[name] = (
                disabled_s, enabled_s, n_sites, disabled_pct,
                cycle_s, qlog_pct,
            )
        return site_ns, rows

    site_ns, rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Tracing overhead per query (SF-0.01, best of {REPEATS}; "
        f"null span site = {site_ns:.0f} ns)",
        ["query", "disabled ms", "enabled ms", "sites",
         "disabled %", "qlog us/ev", "qlog %", "enabled x"],
        [
            [
                name,
                f"{d * 1e3:.1f}",
                f"{e * 1e3:.1f}",
                sites,
                f"{pct:.3f}",
                f"{cyc * 1e6:.1f}",
                f"{qpct:.3f}",
                f"{e / d:.3f}",
            ]
            for name, (d, e, sites, pct, cyc, qpct) in rows.items()
        ],
    )

    worst = max(rows, key=lambda n: rows[n][3])
    worst_qlog = max(rows, key=lambda n: rows[n][4])
    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "obs_overhead",
                "scale_factor": 0.01,
                "repeats_best_of": REPEATS,
                "null_span_site_ns": site_ns,
                "disabled_budget_pct": DISABLED_BUDGET_PCT,
                "qlog_budget_us_per_event": QLOG_BUDGET_US,
                "worst_query": worst,
                "worst_disabled_overhead_pct": rows[worst][3],
                "worst_qlog_query": worst_qlog,
                "worst_qlog_event_us": rows[worst_qlog][4] * 1e6,
                # reported, not gated
                "worst_qlog_overhead_pct": max(
                    r[5] for r in rows.values()
                ),
                "per_query": {
                    name: {
                        "disabled_s": d,
                        "enabled_s": e,
                        "span_sites": sites,
                        "disabled_overhead_pct": pct,
                        "qlog_event_s": cyc,
                        "qlog_overhead_pct": qpct,
                        "enabled_slowdown": e / d,
                    }
                    for name, (d, e, sites, pct, cyc, qpct)
                    in rows.items()
                },
            },
            indent=2,
        )
        + "\n"
    )

    for name, (_d, _e, sites, pct, cyc, _qpct) in rows.items():
        assert sites > 0, f"{name}: tracer saw no instrumentation sites"
        assert pct < DISABLED_BUDGET_PCT, (
            f"{name}: {sites} disabled span sites at {site_ns:.0f} ns "
            f"each cost {pct:.3f}% of the query"
        )
        assert cyc * 1e6 < QLOG_BUDGET_US, (
            f"{name}: one wide event costs {cyc * 1e6:.1f} us "
            f"with the log enabled (budget {QLOG_BUDGET_US:.0f})"
        )
