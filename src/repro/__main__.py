"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``query``    — run a TPC-H query (by number) or a SQL string, on the
  baseline engine and/or the AQUOMAN simulator;
- ``evaluate`` — the full Fig. 16 evaluation (all 22 queries, five
  system configurations, SF-1000 scaling);
- ``explain``  — per-node offload decisions for one query;
- ``analyze``  — static analysis: typecheck, suspend prediction,
  PE-program verification and morsel-safety proofs, without executing;
- ``profile``  — run one query under the runtime tracer and export a
  ``chrome://tracing`` span timeline, Prometheus metrics and a flame
  summary (``--trace-out`` / ``--metrics-out``);
- ``doctor``   — the query doctor: critical-path attribution across
  host/worker/device lanes, modeled bottleneck verdict with what-if
  projections, and the explain-analyze table joining the static
  analyzer's predictions with observed actuals;
- ``chaos``    — seeded fault-injection campaigns: run queries under
  injected flash/worker/device faults and verify every recovery path
  returns bit-identical results, emitting a JSON report; exits 1 on
  any mismatch or unrecoverable fault, for the CI chaos gate;
- ``tracediff`` — align two query-log runs by plan fingerprint and
  attribute the wall-time delta per critical-path bucket and span
  prefix; ``--strict`` exits 1 on regressions beyond the noise bands;
- ``serve``    — stdlib HTTP endpoint exposing every route in
  :data:`repro.obs.server.ROUTES` (Prometheus scrape, health, the last
  trace and the query log) from a warm process.

``query`` and ``evaluate`` also accept ``--trace-out``/``--metrics-out``
to record without the profile-specific defaults, and — like ``profile``
and ``chaos`` — ``--query-log FILE`` to append one wide event per query
(add ``--qlog-sample-k``/``--qlog-trace-dir`` for tail-sampled full
traces).  One :func:`_obs_session` runs that sequence for all four.

SQL that does not parse or plan, or a plan the strict analyzer
rejects, prints one ``error: …`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterator

from repro import tpch
from repro.analysis import PlanRejected
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import QueryCompiler
from repro.engine import Engine
from repro.engine.morsel import (
    TUNED_MORSEL_ROWS,
    WORKER_BACKENDS,
    MorselConfig,
)
from repro.obs import (
    METRICS,
    QueryLog,
    Tracer,
    flame_summary,
    prometheus_text,
    set_global_tracer,
    set_query_log,
    validate_chrome_trace,
    warn_dropped_spans,
    write_chrome_trace,
)
from repro.perf.trace import QueryTrace
from repro.sqlir import PlanningError, SqlSyntaxError, plan_sql
from repro.util.units import GB, fmt_bytes


def _add_common(
    parser: argparse.ArgumentParser, target_sf: bool = True
) -> None:
    parser.add_argument(
        "--sf", type=float, default=0.01,
        help="functional TPC-H scale factor (default 0.01)",
    )
    if target_sf:
        parser.add_argument(
            "--target-sf", type=float, default=1000.0,
            help="simulated scale factor for device decisions "
            "(default 1000)",
        )


def _add_query(parser: argparse.ArgumentParser) -> None:
    """The query selector: a TPC-H number or a SQL string."""
    parser.add_argument("number", type=int, nargs="?",
                        help="TPC-H query number (1-22)")
    parser.add_argument("--sql", help="a SQL string instead")


def _add_device(
    parser: argparse.ArgumentParser, no_device: bool = False
) -> None:
    parser.add_argument("--dram-gb", type=float, default=40.0)
    if no_device:
        parser.add_argument("--no-device", action="store_true")


def _add_morsel(
    parser: argparse.ArgumentParser,
    *,
    workers_help: str = "morsel workers (default 4)",
    backend_help: str = "morsel worker backend",
    morsel_rows: int = TUNED_MORSEL_ROWS,
    morsel_rows_help: str = "rows per morsel (default %(default)s, "
    "bench-tuned)",
) -> None:
    parser.add_argument("--workers", type=int, default=4,
                        help=workers_help)
    parser.add_argument(
        "--backend", choices=WORKER_BACKENDS,
        default=MorselConfig.worker_backend,
        help=backend_help + " (default %(default)s)",
    )
    parser.add_argument("--morsel-rows", type=int, default=morsel_rows,
                        help=morsel_rows_help)


def _add_ring(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ring-capacity", type=int, default=None,
        help="span ring size per trace lane (default 65536); the run "
        "warns when spans were dropped",
    )


def _add_report(parser: argparse.ArgumentParser, *, strict: str) -> None:
    """How a command reports: ``--json`` and ``--strict`` (``strict``
    is the per-command help text)."""
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    parser.add_argument("--strict", action="store_true", help=strict)


def _add_top(
    parser: argparse.ArgumentParser, default: int, what: str
) -> None:
    parser.add_argument(
        "--top", type=int, default=default,
        help=f"{what} (default {default})",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace-event JSON (chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write Prometheus text-exposition metrics",
    )
    _add_query_log(parser)


def _add_query_log(
    parser: argparse.ArgumentParser,
    *,
    sampling: bool = True,
    help: str = "append one wide event per query (JSONL): fingerprint, "
    "wall time, critical-path buckets, counters, faults",
) -> None:
    parser.add_argument("--query-log", metavar="FILE", help=help)
    if not sampling:
        return
    parser.add_argument(
        "--qlog-sample-k", type=int, default=0, metavar="K",
        help="tail sampling: retain full Chrome traces for the "
        "slowest K queries (plus all faulted / suspend-mispredicted "
        "ones); 0 disables trace retention (default)",
    )
    parser.add_argument(
        "--qlog-trace-dir", metavar="DIR",
        help="directory for tail-sampled traces (with --qlog-sample-k)",
    )


def _plan_of(args, db):
    if args.sql is not None:
        return plan_sql(args.sql, db)
    if args.number is None:
        raise SystemExit("give a TPC-H query number or --sql")
    return tpch.query(args.number)


def _query_name(args) -> str:
    return args.sql or f"q{args.number:02d}"


def _device_config(args) -> DeviceConfig:
    return DeviceConfig(
        dram_bytes=int(args.dram_gb * GB),
        scale_ratio=args.target_sf / args.sf,
    )


@contextmanager
def _obs_session(
    args, where: str, metadata: dict | None = None
) -> Iterator[Tracer | None]:
    """One command's observability session.

    Yields a live tracer when any export was requested, else ``None``
    and does nothing.  Around the block: fresh
    metrics, the tracer installed as the ambient one (so module-level
    spans — storage I/O, the analysis passes, injector fault instants —
    land in the same timeline) and the query log installed; after it:
    both uninstalled, the log summarised, a dropped-span warning, and
    the ``--trace-out`` / ``--metrics-out`` exports stamped with
    ``metadata`` (a dict the caller may fill in during the block).
    """
    query_log = getattr(args, "query_log", None)
    if not (
        query_log
        or getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
    ):
        yield None
        return
    METRICS.reset()
    tracer = Tracer(getattr(args, "ring_capacity", None))
    log = None
    if query_log:
        log = QueryLog(
            query_log,
            sample_slowest_k=args.qlog_sample_k,
            trace_dir=args.qlog_trace_dir,
        )
    set_global_tracer(tracer)
    set_query_log(log)
    try:
        yield tracer
    finally:
        set_query_log(None)
        set_global_tracer(None)
        if log is not None:
            log.close()
            print(f"query log: {log.path} ({log.n_emitted} wide events)",
                  file=sys.stderr)
    warn_dropped_spans(tracer.n_dropped, where)
    _export_obs(tracer, args, **(metadata or {}))


def _export_obs(tracer: Tracer, args, **metadata) -> None:
    if getattr(args, "trace_out", None):
        doc = write_chrome_trace(tracer, args.trace_out,
                                 metadata=metadata)
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - exporter self-check
            raise SystemExit(
                f"invalid trace export: {'; '.join(problems)}"
            )
        print(f"chrome trace: {args.trace_out} "
              f"(load in chrome://tracing)")
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as fh:
            fh.write(prometheus_text(METRICS))
        print(f"metrics: {args.metrics_out}")


def cmd_query(args) -> int:
    db = tpch.generate(args.sf)
    # Plan once; both executors take the same plan object.
    plan = _plan_of(args, db)
    name = _query_name(args)

    with _obs_session(args, "query", {"query": name}) as tracer:
        engine_trace = QueryTrace(query=name)
        table = Engine(db, engine_trace, tracer=tracer).execute(plan)
        print(table.head(args.rows))
        print(f"({table.nrows} rows)")

        if not args.no_device:
            result = AquomanSimulator(
                db, _device_config(args), tracer=tracer
            ).run(plan, query=name)
            trace = result.trace
            match = table.equals(result.table.renamed("result"))
            print(
                f"AQUOMAN: match={match} "
                f"rows-on-device={trace.offload_fraction_rows:.0%} "
                f"flash={fmt_bytes(trace.aquoman_flash_bytes)} "
                f"suspended={trace.suspend_reason or 'no'}"
            )
    return 0


def cmd_evaluate(args) -> int:
    from repro.perf.tpch_eval import collect_traces

    db = tpch.generate(args.sf)
    metadata: dict = {}
    with _obs_session(args, "evaluate", metadata) as tracer:
        evaluation = collect_traces(db, target_sf=args.target_sf,
                                    tracer=tracer)
        report = evaluation.report(args.target_sf)
        metadata["queries"] = len(report.queries)

    print(f"{'query':>6} " + " ".join(f"{s:>10}" for s in report.systems))
    for q in report.queries:
        cells = " ".join(
            f"{report.timing(q, s).runtime_s:10.0f}" for s in report.systems
        )
        print(f"{q:>6} {cells}")
    totals = " ".join(
        f"{report.total_runtime(s):10.0f}" for s in report.systems
    )
    print(f"{'total':>6} {totals}")
    print(f"mean CPU saving : {report.mean_cpu_saving():.0%}")
    print(f"mean DRAM saving: {report.mean_dram_saving():.0%}")
    return 0


def cmd_profile(args) -> int:
    """Run one query under the tracer and export its span timeline."""
    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    name = _query_name(args)
    if not args.trace_out:
        stem = f"q{args.number:02d}" if args.number is not None else "sql"
        args.trace_out = f"{stem}.trace.json"

    metadata = {"query": name}
    with _obs_session(args, "profile", metadata) as tracer:
        wall0 = time.monotonic_ns()
        with tracer.span("profile.query", query=name):
            engine = Engine(
                db,
                tracer=tracer,
                morsels=MorselConfig(
                    parallel=True,
                    morsel_rows=args.morsel_rows,
                    n_workers=args.workers,
                    worker_backend=args.backend,
                ),
            )
            table = engine.execute(plan)
            if not args.no_device:
                AquomanSimulator(
                    db, _device_config(args), tracer=tracer
                ).run(plan, query=name)
        wall_ns = time.monotonic_ns() - wall0

        root_ns = tracer.total_ns("profile.query")
        coverage = root_ns / wall_ns if wall_ns else 0.0
        print(flame_summary(tracer, top=args.top))
        suffix = (
            " (coverage undercounts: spans were dropped)"
            if tracer.n_dropped else ""
        )
        print(
            f"\n{name}: {table.nrows} rows, "
            f"wall {wall_ns / 1e6:.1f} ms, span coverage {coverage:.1%}"
            f"{suffix}"
        )
        metadata.update(coverage=round(coverage, 4),
                        wall_ms=round(wall_ns / 1e6, 3))
    return 0


def cmd_generate(args) -> int:
    from repro.storage.io import save_catalog

    db = tpch.generate(args.sf)
    manifest = save_catalog(db, args.directory)
    print(f"wrote {fmt_bytes(db.nbytes)} of column files")
    print(f"manifest: {manifest}")
    return 0


def cmd_explain(args) -> int:
    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    compiler = QueryCompiler(db, scale_ratio=args.target_sf / args.sf)
    compiled = compiler.compile(plan)
    for node in plan.walk():
        decision = compiled.decision(node)
        marker = "DEVICE" if decision.offloadable else "host  "
        note = f"  <- {decision.reason.value}" if not decision.offloadable \
            else ""
        print(f"[{marker}] {node!r}{note}")
    return 0


def cmd_analyze(args) -> int:
    import json

    from repro.analysis import analyze_plan

    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    report = analyze_plan(plan, db, device=_device_config(args))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return 1 if args.strict and not report.ok else 0


def cmd_doctor(args) -> int:
    """Diagnose one query: critical path, bottleneck, explain-analyze."""
    from repro.obs.doctor import diagnose, report_json

    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    name = _query_name(args)
    report = diagnose(
        db,
        plan,
        name,
        target_sf=args.target_sf,
        dram_gb=args.dram_gb,
        workers=args.workers,
        morsel_rows=args.morsel_rows,
        backend=args.backend,
        ring_capacity=args.ring_capacity,
    )
    print(report_json(report) if args.json else report.format())
    warn_dropped_spans(report.n_dropped_spans, "doctor")
    if args.strict and report.mispredictions:
        return 1
    return 0


def cmd_chaos(args) -> int:
    """Run a seeded chaos campaign and emit its JSON report."""
    import json

    from repro.faults.chaos import run_campaign
    from repro.faults.plan import FaultConfig

    if args.queries.strip().lower() == "all":
        queries = list(range(1, 23))
    else:
        queries = [int(q) for q in args.queries.split(",") if q.strip()]
    seeds = [args.seed + k for k in range(args.campaign)]
    config = FaultConfig(
        page_error_rate=args.page_error_rate,
        latency_spike_rate=args.latency_spike_rate,
        worker_crash_rate=args.worker_crash_rate,
        device_fault_rate=args.device_fault_rate,
        channel_stall_rate=args.channel_stall_rate,
        retry_budget=args.retry_budget,
    )
    with _obs_session(args, "chaos campaign") as tracer:
        report = run_campaign(
            queries,
            seeds,
            config,
            sf=args.sf,
            target_sf=args.target_sf,
            workers=args.workers,
            morsel_rows=args.morsel_rows,
            backend=args.backend,
            log=lambda line: print(f"  {line}", file=sys.stderr),
            tracer=tracer,
        )
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"chaos report: {args.out}", file=sys.stderr)
    else:
        print(text)
    totals = report["totals"]
    print(
        f"chaos: {len(report['runs'])} runs, "
        f"{totals.get('injected', 0)} faults injected, "
        f"{totals.get('page_retries', 0)} retries, "
        f"{totals.get('morsel_retries', 0)} morsel re-runs, "
        f"{totals.get('host_fallbacks', 0)} host fallbacks "
        f"-> {report['verdict']}",
        file=sys.stderr,
    )
    return 0 if report["verdict"] == "pass" else 1


def cmd_tracediff(args) -> int:
    """Attribute the wall-time delta between two query-log runs."""
    import json

    from repro.obs.tracediff import diff_runs, load_wide_events

    diff = diff_runs(
        load_wide_events(args.run_a),
        load_wide_events(args.run_b),
        rel_band=args.rel_band,
        abs_band_ms=args.abs_band_ms,
    )
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.format(top=args.top))
    return 1 if args.strict and diff.regressions else 0


def cmd_serve(args) -> int:
    """Serve every obs route over stdlib HTTP from a warm process."""
    from repro.obs import chrome_trace
    from repro.obs.server import ObsServer, route_summary, set_last_trace

    db = tpch.generate(args.sf)
    warm = [int(q) for q in args.warm.split(",") if q.strip()] \
        if args.warm else []

    METRICS.reset()
    tracer = Tracer()
    set_global_tracer(tracer)
    # Without --query-log the log is in-memory (no JSONL): it still
    # feeds the wide-event ring and the query.* fleet instruments a
    # /metrics scraper reads.
    set_query_log(QueryLog(args.query_log))
    try:
        engine = Engine(
            db,
            tracer=tracer,
            morsels=MorselConfig(),
        )
        for number in warm:
            t0 = time.monotonic_ns()
            engine.trace.query = f"q{number:02d}"
            with tracer.span("serve.warm", query=f"q{number:02d}"):
                engine.execute_relation(tpch.query(number))
            METRICS.counter(
                "serve.warm_queries", "queries run before serving"
            ).inc()
            METRICS.histogram(
                "serve.warm_ms", "warm query wall time (ms)"
            ).observe((time.monotonic_ns() - t0) / 1e6)
        if warm:
            set_last_trace(chrome_trace(
                list(tracer.records()), tracer.epoch_ns, tracer.n_dropped,
                metadata={"warm_queries": warm, "sf": args.sf},
            ))

        server = ObsServer(host=args.host, port=args.port)
        print(f"serving on {server.url}  "
              f"({route_summary()}; Ctrl-C stops)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    finally:
        set_query_log(None)
        set_global_tracer(None)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AQUOMAN reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="run one query both ways")
    _add_query(p_query)
    p_query.add_argument("--rows", type=int, default=10)
    _add_device(p_query, no_device=True)
    _add_common(p_query)
    _add_obs(p_query)
    p_query.set_defaults(func=cmd_query)

    p_eval = sub.add_parser("evaluate", help="the Fig. 16 evaluation")
    _add_common(p_eval)
    _add_obs(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_profile = sub.add_parser(
        "profile",
        help="trace one query's runtime and export the timeline",
    )
    _add_query(p_profile)
    _add_device(p_profile, no_device=True)
    _add_morsel(
        p_profile,
        workers_help="morsel workers = trace lanes (default 4)",
        backend_help="morsel worker backend; 'process' adds "
        "proc-worker-N lanes to the trace",
    )
    _add_top(p_profile, 15, "flame-summary rows to print")
    _add_ring(p_profile)
    _add_common(p_profile)
    _add_obs(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_generate = sub.add_parser(
        "generate", help="write a TPC-H catalog as column files"
    )
    p_generate.add_argument("directory")
    _add_common(p_generate)
    p_generate.set_defaults(func=cmd_generate)

    p_explain = sub.add_parser("explain", help="offload decisions")
    _add_query(p_explain)
    _add_common(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_analyze = sub.add_parser(
        "analyze", help="static analysis without executing"
    )
    _add_query(p_analyze)
    _add_device(p_analyze)
    _add_report(p_analyze,
                strict="exit 1 when the analyzer finds errors")
    _add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_doctor = sub.add_parser(
        "doctor",
        help="diagnose one query: critical path, bottleneck, "
        "explain-analyze",
    )
    _add_query(p_doctor)
    _add_device(p_doctor)
    _add_morsel(p_doctor)
    _add_ring(p_doctor)
    _add_report(
        p_doctor,
        strict="exit 1 when any estimate-vs-actual row mispredicts",
    )
    _add_common(p_doctor)
    p_doctor.set_defaults(func=cmd_doctor)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with bit-identical "
        "recovery verification",
    )
    p_chaos.add_argument(
        "queries",
        help='TPC-H query numbers: "6", "1,6,14", or "all"',
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="first campaign seed (default 0)",
    )
    p_chaos.add_argument(
        "--campaign", type=int, default=5,
        help="number of consecutive seeds to run (default 5)",
    )
    p_chaos.add_argument(
        "--page-error-rate", type=float, default=0.02,
        help="transient flash page read error rate (default 0.02)",
    )
    p_chaos.add_argument(
        "--latency-spike-rate", type=float, default=0.05,
        help="page-read latency spike rate (default 0.05)",
    )
    p_chaos.add_argument(
        "--worker-crash-rate", type=float, default=0.2,
        help="morsel-worker crash rate (default 0.2)",
    )
    p_chaos.add_argument(
        "--device-fault-rate", type=float, default=0.3,
        help="mid-task device fault rate per subtree (default 0.3)",
    )
    p_chaos.add_argument(
        "--channel-stall-rate", type=float, default=0.25,
        help="whole-channel stall rate (default 0.25)",
    )
    p_chaos.add_argument(
        "--retry-budget", type=int, default=3,
        help="retries after the first failure; 0 makes any transient "
        "fault terminal (default 3)",
    )
    _add_morsel(
        p_chaos,
        backend_help="morsel worker backend; reports are identical "
        "across backends",
        morsel_rows=8192,
        morsel_rows_help="rows per morsel; small default keeps "
        "fault-site density high (default %(default)s)",
    )
    p_chaos.add_argument(
        "--out", metavar="FILE",
        help="write the JSON report here instead of stdout",
    )
    _add_common(p_chaos)
    _add_query_log(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_tracediff = sub.add_parser(
        "tracediff",
        help="attribute the wall-time delta between two query-log "
        "runs per critical-path bucket and span prefix",
    )
    p_tracediff.add_argument("run_a", help="baseline query-log JSONL")
    p_tracediff.add_argument("run_b", help="candidate query-log JSONL")
    _add_top(p_tracediff, 10, "entries to print, largest |delta| first")
    p_tracediff.add_argument(
        "--rel-band", type=float, default=0.10,
        help="relative noise band before a delta counts as a "
        "regression (default 0.10)",
    )
    p_tracediff.add_argument(
        "--abs-band-ms", type=float, default=0.5,
        help="absolute noise floor in ms (default 0.5)",
    )
    _add_report(
        p_tracediff,
        strict="exit 1 when any aligned query regresses beyond the "
        "bands",
    )
    p_tracediff.set_defaults(func=cmd_tracediff)

    from repro.obs.server import route_summary

    p_serve = sub.add_parser(
        "serve",
        help=f"HTTP {route_summary()}",
        description="Serve the observability endpoints: "
        + route_summary(),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9463)
    p_serve.add_argument(
        "--warm", default="1,6", metavar="Q,Q,...",
        help="TPC-H queries to run before serving, populating metrics "
        "and /trace/last (default 1,6; empty string skips)",
    )
    _add_common(p_serve, target_sf=False)
    _add_query_log(
        p_serve,
        sampling=False,
        help="also append wide events to FILE (JSONL); without it the "
        "query log stays in-memory (ring + fleet metrics only)",
    )
    p_serve.set_defaults(func=cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SqlSyntaxError, PlanningError, PlanRejected) as exc:
        # bad input, not a crash: one line, and argparse's usage code
        message = " ".join(str(exc).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
