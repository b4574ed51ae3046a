"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``query``    — run a TPC-H query (by number) or a SQL string, on the
  baseline engine and/or the AQUOMAN simulator;
- ``evaluate`` — the full Fig. 16 evaluation (all 22 queries, five
  system configurations, SF-1000 scaling);
- ``explain``  — per-node offload decisions for one query;
- ``analyze``  — static analysis: typecheck, suspend prediction,
  PE-program verification and morsel-safety proofs, without executing;
- ``lint``     — concurrency & determinism lint over the runtime's own
  source (AQ5xx): worker-context races, fork/pickle-boundary safety,
  determinism of merge paths, ambient-state discipline; ``--strict``
  exits 1 on findings, ``--selfcheck`` verifies the passes still catch
  seeded violations, ``--baseline`` regenerates the suppression
  baseline;
- ``profile``  — run one query under the runtime tracer and export a
  ``chrome://tracing`` span timeline, Prometheus metrics and a flame
  summary (``--trace-out`` / ``--metrics-out``);
- ``doctor``   — the query doctor: critical-path attribution across
  host/worker/device lanes, modeled bottleneck verdict with what-if
  projections, and the explain-analyze table joining the static
  analyzer's predictions with observed actuals;
- ``perf diff`` — compare run-record stores (JSONL) with median-of-N,
  noise-aware thresholds; ``--strict`` exits 1 on regressions, for CI;
- ``chaos``    — seeded fault-injection campaigns: run queries under
  injected flash/worker/device faults and verify every recovery path
  returns bit-identical results, emitting a JSON report; exits 1 on
  any mismatch or unrecoverable fault, for the CI chaos gate;
- ``tracediff`` — align two query-log runs by plan fingerprint and
  attribute the wall-time delta per critical-path bucket and span
  prefix; ``--strict`` exits 1 on regressions beyond the noise bands;
- ``serve``    — stdlib HTTP endpoint exposing every route in
  :data:`repro.obs.server.ROUTES` (Prometheus scrape, health,
  windowed time-series JSON, SLO burn-rate status, a self-contained
  HTML dashboard, traces and the query log); a background sampler and
  SLO engine run by default (``--sample-interval 0`` / ``--no-slo``
  disable them);
- ``top``      — curses-free ANSI terminal view of the same fleet
  signals (QPS, rolling p50/p99 per backend, fault rate, SLO status,
  slowest recent queries), polling a served URL or ``--demo``
  in-process data.

``query`` and ``evaluate`` also accept ``--trace-out``/``--metrics-out``
to record without the profile-specific defaults, and — like ``chaos``
— ``--query-log FILE`` to append one wide event per query (add
``--qlog-sample-k``/``--qlog-trace-dir`` for tail-sampled full traces).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import tpch
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
from repro.sqlir import plan_sql
from repro.util.units import GB, fmt_bytes


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sf", type=float, default=0.01,
        help="functional TPC-H scale factor (default 0.01)",
    )
    parser.add_argument(
        "--target-sf", type=float, default=1000.0,
        help="simulated scale factor for device decisions (default 1000)",
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


def _add_query_log(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--query-log", metavar="FILE",
        help="append one wide event per query (JSONL): fingerprint, "
        "wall time, critical-path buckets, counters, faults",
    )
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


def _obs_tracer(args) -> Tracer | None:
    """A live tracer when any observability export was requested."""
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "query_log", None)
    ):
        METRICS.reset()
        return Tracer()
    return None


def _install_query_log(args) -> QueryLog | None:
    """Create + install the ambient query log when requested."""
    path = getattr(args, "query_log", None)
    if not path:
        return None
    log = QueryLog(
        path,
        sample_slowest_k=getattr(args, "qlog_sample_k", 0),
        trace_dir=getattr(args, "qlog_trace_dir", None),
    )
    set_query_log(log)
    return log


def _report_query_log(log: QueryLog | None) -> None:
    """Uninstall the ambient log and print a one-line summary."""
    if log is None:
        return
    set_query_log(None)
    log.close()
    print(f"query log: {log.path} ({log.n_emitted} wide events)",
          file=sys.stderr)


def _export_obs(tracer: Tracer | None, args, **metadata) -> None:
    if tracer is None:
        return
    if args.trace_out:
        doc = write_chrome_trace(tracer, args.trace_out,
                                 metadata=metadata)
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - exporter self-check
            raise SystemExit(
                f"invalid trace export: {'; '.join(problems)}"
            )
        print(f"chrome trace: {args.trace_out} "
              f"(load in chrome://tracing)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(prometheus_text(METRICS))
        print(f"metrics: {args.metrics_out}")


def cmd_query(args) -> int:
    db = tpch.generate(args.sf)
    # Plan once; both executors take the same plan object.
    plan = _plan_of(args, db)
    name = _query_name(args)
    tracer = _obs_tracer(args)
    qlog = _install_query_log(args)

    try:
        engine_trace = QueryTrace(query=name)
        table = Engine(db, engine_trace, tracer=tracer).execute(plan)
        print(table.head(args.rows))
        print(f"({table.nrows} rows)")

        if not args.no_device:
            config = DeviceConfig(
                dram_bytes=int(args.dram_gb * GB),
                scale_ratio=args.target_sf / args.sf,
            )
            result = AquomanSimulator(db, config, tracer=tracer).run(
                plan, query=name
            )
            trace = result.trace
            match = table.equals(result.table.renamed("result"))
            print(
                f"AQUOMAN: match={match} "
                f"rows-on-device={trace.offload_fraction_rows:.0%} "
                f"flash={fmt_bytes(trace.aquoman_flash_bytes)} "
                f"suspended={trace.suspend_reason or 'no'}"
            )
    finally:
        _report_query_log(qlog)
    _export_obs(tracer, args, query=name)
    return 0


def cmd_evaluate(args) -> int:
    from repro.perf.tpch_eval import collect_traces

    db = tpch.generate(args.sf)
    tracer = _obs_tracer(args)
    qlog = _install_query_log(args)
    try:
        evaluation = collect_traces(db, target_sf=args.target_sf,
                                    tracer=tracer)
    finally:
        _report_query_log(qlog)
    report = evaluation.report(args.target_sf)

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
    _export_obs(tracer, args, queries=len(report.queries))
    return 0


def cmd_profile(args) -> int:
    """Run one query under the tracer and export its span timeline."""
    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    name = _query_name(args)
    if not args.trace_out:
        stem = f"q{args.number:02d}" if args.number is not None else "sql"
        args.trace_out = f"{stem}.trace.json"

    METRICS.reset()
    tracer = (
        Tracer(ring_capacity=args.ring_capacity)
        if args.ring_capacity is not None
        else Tracer()
    )
    # The ambient tracer lets module-level spans (storage I/O, the
    # analysis passes) land in the same timeline.
    set_global_tracer(tracer)
    try:
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
                config = DeviceConfig(
                    dram_bytes=int(args.dram_gb * GB),
                    scale_ratio=args.target_sf / args.sf,
                )
                AquomanSimulator(db, config, tracer=tracer).run(
                    plan, query=name
                )
        wall_ns = time.monotonic_ns() - wall0
    finally:
        set_global_tracer(None)

    root_ns = tracer.total_ns("profile.query")
    coverage = root_ns / wall_ns if wall_ns else 0.0
    print(flame_summary(tracer, top=args.top))
    dropped = tracer.n_dropped
    suffix = " (coverage undercounts: spans were dropped)" if dropped \
        else ""
    print(
        f"\n{name}: {table.nrows} rows, "
        f"wall {wall_ns / 1e6:.1f} ms, span coverage {coverage:.1%}"
        f"{suffix}"
    )
    if dropped:
        print(f"WARNING: {dropped} spans dropped (raise ring_capacity)")
    _export_obs(tracer, args, query=name, coverage=round(coverage, 4),
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
    from repro.analysis import analyze_plan

    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    config = DeviceConfig(
        dram_bytes=int(args.dram_gb * GB),
        scale_ratio=args.target_sf / args.sf,
    )
    report = analyze_plan(plan, db, device=config)
    if args.json:
        print(report.to_json_str())
    else:
        print(report.format())
    if args.strict and not report.ok:
        return 1
    return 0


def cmd_lint(args) -> int:
    """Concurrency & determinism lint over the repro sources."""
    from repro.analysis.conccheck import lint_repo
    from repro.analysis.conccheck.config import default_baseline_path

    if args.selfcheck:
        from repro.analysis.conccheck.selfcheck import run_selfcheck

        ok, lines = run_selfcheck()
        print("\n".join(lines))
        return 0 if ok else 1

    report = lint_repo(use_baseline=not args.baseline)
    if args.baseline:
        from repro.analysis.conccheck.report import write_baseline

        entries = write_baseline(default_baseline_path(), report)
        print(f"baseline: {default_baseline_path()} "
              f"({len(entries)} fingerprints)")
        return 0
    if args.json:
        print(report.to_json_str())
    else:
        print(report.format(verbose=args.verbose))
    if args.strict and not report.ok:
        return 1
    return 0


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
    warn_dropped_spans(
        getattr(report, "n_dropped_spans", 0), "doctor"
    )
    if args.strict and report.mispredictions:
        return 1
    return 0


def cmd_perf_diff(args) -> int:
    """Compare two run-record stores; exit 1 on regressions."""
    from repro.obs.baseline import compare, load_records

    thresholds = {}
    for spec in args.threshold or ():
        metric, sep, value = spec.rpartition("=")
        if not sep:
            raise SystemExit(f"--threshold wants METRIC=REL, got {spec!r}")
        thresholds[metric] = float(value)
    report = compare(
        load_records(args.baseline),
        load_records(args.current),
        thresholds=thresholds or None,
    )
    print(report.format(verbose=args.verbose))
    return 1 if report.failed(strict=args.strict) else 0


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
    tracer = Tracer() if args.query_log else None
    qlog = _install_query_log(args)
    if tracer is not None:
        # Ambient too, so injector fault instants join the timeline
        # (and the wide events) alongside the engine's spans.
        set_global_tracer(tracer)
    try:
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
    finally:
        if tracer is not None:
            set_global_tracer(None)
        _report_query_log(qlog)
    if tracer is not None:
        warn_dropped_spans(tracer.n_dropped, "chaos campaign")
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
    """Serve every obs route over stdlib HTTP, sampling by default."""
    import threading

    from repro.obs import chrome_trace
    from repro.obs.server import ObsServer, route_summary, set_last_trace
    from repro.obs.slo import (
        BurnWindows,
        SloEngine,
        default_objectives,
        set_slo_engine,
    )
    from repro.obs.timeseries import (
        Sampler,
        TimeSeriesStore,
        set_timeseries,
    )

    db = tpch.generate(args.sf)
    warm = [int(q) for q in args.warm.split(",") if q.strip()] \
        if args.warm else []

    METRICS.reset()
    tracer = Tracer()
    set_global_tracer(tracer)
    # An in-memory query log (no JSONL) feeds the wide-event ring and
    # the query.* fleet instruments the rings and SLOs read.
    set_query_log(QueryLog(args.query_log))
    sampler = None
    stop_loop = threading.Event()
    loop_thread = None
    try:
        engine = Engine(
            db,
            tracer=tracer,
            morsels=MorselConfig(
                parallel=True, morsel_rows=TUNED_MORSEL_ROWS
            ),
        )

        def run_warm(number: int) -> None:
            plan = tpch.query(number)
            t0 = time.monotonic_ns()
            engine.trace.query = f"q{number:02d}"
            with tracer.span("serve.warm", query=f"q{number:02d}"):
                engine.execute_relation(plan)
            METRICS.counter(
                "serve.warm_queries", "queries run before serving"
            ).inc()
            METRICS.histogram(
                "serve.warm_ms", "warm query wall time (ms)"
            ).observe((time.monotonic_ns() - t0) / 1e6)

        for number in warm:
            run_warm(number)
        if warm:
            set_last_trace(chrome_trace(
                tracer, metadata={"warm_queries": warm, "sf": args.sf}
            ))

        if args.sample_interval > 0:
            store = TimeSeriesStore(METRICS)
            set_timeseries(store)
            engine_slo = None
            if not args.no_slo:
                engine_slo = SloEngine(
                    store,
                    default_objectives(p99_ms=args.slo_p99_ms),
                    BurnWindows(),
                )
                set_slo_engine(engine_slo)
            sampler = Sampler(
                store, interval_s=args.sample_interval,
                slo_engine=engine_slo,
            ).start()

        if args.loop and warm:
            # Replay the warm queries forever so the dashboard and SLO
            # windows have live traffic to show.
            def replay() -> None:
                while not stop_loop.is_set():
                    for number in warm:
                        if stop_loop.is_set():
                            return
                        run_warm(number)
                    stop_loop.wait(args.loop_interval)

            loop_thread = threading.Thread(
                target=replay, name="serve-loop", daemon=True
            )
            loop_thread.start()

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
        stop_loop.set()
        if loop_thread is not None:
            loop_thread.join(timeout=5)
        if sampler is not None:
            sampler.stop()
        from repro.obs.slo import set_slo_engine as _set_slo
        from repro.obs.timeseries import set_timeseries as _set_ts

        _set_slo(None)
        _set_ts(None)
        set_query_log(None)
        set_global_tracer(None)
    return 0


def cmd_top(args) -> int:
    """Terminal fleet view over a served or in-process registry."""
    from repro.obs.top import (
        run_top,
        snapshot_from_http,
        snapshot_local,
    )

    iterations = 1 if args.once else args.iterations
    color = not args.no_color
    if not args.demo:
        return run_top(
            lambda: snapshot_from_http(args.url, args.window),
            interval_s=args.interval,
            iterations=iterations,
            color=color,
        )

    # Demo mode: run a handful of queries in-process and render from
    # the local store — no server needed.
    from repro.obs.slo import BurnWindows, SloEngine, default_objectives
    from repro.obs.timeseries import TimeSeriesStore

    METRICS.reset()
    set_query_log(QueryLog(None))
    try:
        db = tpch.generate(args.sf)
        engine = Engine(
            db,
            morsels=MorselConfig(
                parallel=True, morsel_rows=TUNED_MORSEL_ROWS
            ),
        )
        store = TimeSeriesStore(METRICS)
        slo = SloEngine(store, default_objectives(),
                        BurnWindows(short_s=5.0, long_s=30.0))
        for _ in range(3):
            for number in (1, 6):
                engine.trace.query = f"q{number:02d}"
                engine.execute_relation(tpch.query(number))
            store.sample()
        return run_top(
            lambda: snapshot_local(store, slo, args.window),
            interval_s=args.interval,
            iterations=iterations if iterations else 1,
            color=color,
        )
    finally:
        set_query_log(None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AQUOMAN reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="run one query both ways")
    p_query.add_argument("number", type=int, nargs="?",
                         help="TPC-H query number (1-22)")
    p_query.add_argument("--sql", help="a SQL string instead")
    p_query.add_argument("--rows", type=int, default=10)
    p_query.add_argument("--dram-gb", type=float, default=40.0)
    p_query.add_argument("--no-device", action="store_true")
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
    p_profile.add_argument("number", type=int, nargs="?",
                           help="TPC-H query number (1-22)")
    p_profile.add_argument("--sql", help="a SQL string instead")
    p_profile.add_argument("--dram-gb", type=float, default=40.0)
    p_profile.add_argument("--no-device", action="store_true")
    p_profile.add_argument(
        "--workers", type=int, default=4,
        help="morsel workers = trace lanes (default 4)",
    )
    p_profile.add_argument(
        "--backend", choices=WORKER_BACKENDS,
        default=MorselConfig.worker_backend,
        help="morsel worker backend; 'process' adds proc-worker-N "
        "lanes to the trace (default %(default)s)",
    )
    p_profile.add_argument(
        "--morsel-rows", type=int, default=TUNED_MORSEL_ROWS,
        help="rows per morsel (default %(default)s, bench-tuned)",
    )
    p_profile.add_argument(
        "--top", type=int, default=15,
        help="flame-summary rows to print (default 15)",
    )
    p_profile.add_argument(
        "--ring-capacity", type=int, default=None,
        help="per-thread span ring size (default 65536); the run "
        "warns when spans were dropped",
    )
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
    p_explain.add_argument("number", type=int, nargs="?")
    p_explain.add_argument("--sql")
    _add_common(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_analyze = sub.add_parser(
        "analyze", help="static analysis without executing"
    )
    p_analyze.add_argument("number", type=int, nargs="?",
                           help="TPC-H query number (1-22)")
    p_analyze.add_argument("--sql", help="a SQL string instead")
    p_analyze.add_argument("--json", action="store_true",
                           help="machine-readable report")
    p_analyze.add_argument("--dram-gb", type=float, default=40.0)
    p_analyze.add_argument(
        "--strict", action="store_true",
        help="exit 1 when the analyzer finds errors",
    )
    _add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_lint = sub.add_parser(
        "lint",
        help="AQ5xx concurrency & determinism lint of the sources",
    )
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report")
    p_lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 when the lint finds errors",
    )
    p_lint.add_argument(
        "--baseline", action="store_true",
        help="regenerate the committed suppression baseline from the "
        "current findings",
    )
    p_lint.add_argument(
        "--selfcheck", action="store_true",
        help="verify each pass still catches its seeded violations",
    )
    p_lint.add_argument(
        "--verbose", action="store_true",
        help="also list # conc: safe suppressions and baselined "
        "findings",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_doctor = sub.add_parser(
        "doctor",
        help="diagnose one query: critical path, bottleneck, "
        "explain-analyze",
    )
    p_doctor.add_argument("number", type=int, nargs="?",
                          help="TPC-H query number (1-22)")
    p_doctor.add_argument("--sql", help="a SQL string instead")
    p_doctor.add_argument("--dram-gb", type=float, default=40.0)
    p_doctor.add_argument(
        "--workers", type=int, default=4,
        help="morsel workers (default 4)",
    )
    p_doctor.add_argument(
        "--backend", choices=WORKER_BACKENDS,
        default=MorselConfig.worker_backend,
        help="morsel worker backend (default %(default)s)",
    )
    p_doctor.add_argument(
        "--morsel-rows", type=int, default=TUNED_MORSEL_ROWS,
        help="rows per morsel (default %(default)s, bench-tuned)",
    )
    p_doctor.add_argument(
        "--ring-capacity", type=int, default=None,
        help="per-thread span ring size (default 65536)",
    )
    p_doctor.add_argument("--json", action="store_true",
                          help="machine-readable report")
    p_doctor.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any estimate-vs-actual row mispredicts",
    )
    _add_common(p_doctor)
    p_doctor.set_defaults(func=cmd_doctor)

    p_perf = sub.add_parser("perf", help="performance baselines")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_diff = perf_sub.add_parser(
        "diff", help="compare run-record stores (JSONL)"
    )
    p_diff.add_argument("baseline", help="baseline run-record JSONL")
    p_diff.add_argument("current", help="current run-record JSONL")
    p_diff.add_argument(
        "--strict", action="store_true",
        help="also fail when a baseline metric went missing",
    )
    p_diff.add_argument(
        "--threshold", action="append", metavar="METRIC=REL",
        help="override a relative threshold, e.g. wall.=0.4 "
        "(prefix match, repeatable)",
    )
    p_diff.add_argument("--verbose", action="store_true",
                        help="print every metric, not just changes")
    p_diff.set_defaults(func=cmd_perf_diff)

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
    p_chaos.add_argument(
        "--workers", type=int, default=4,
        help="morsel workers (default 4)",
    )
    p_chaos.add_argument(
        "--morsel-rows", type=int, default=8192,
        help="rows per morsel; small default keeps fault-site "
        "density high (default 8192)",
    )
    p_chaos.add_argument(
        "--backend", choices=WORKER_BACKENDS,
        default=MorselConfig.worker_backend,
        help="morsel worker backend; reports are identical across "
        "backends (default %(default)s)",
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
    p_tracediff.add_argument(
        "--top", type=int, default=10,
        help="entries to print, largest |delta| first (default 10)",
    )
    p_tracediff.add_argument(
        "--rel-band", type=float, default=0.10,
        help="relative noise band before a delta counts as a "
        "regression (default 0.10)",
    )
    p_tracediff.add_argument(
        "--abs-band-ms", type=float, default=0.5,
        help="absolute noise floor in ms (default 0.5)",
    )
    p_tracediff.add_argument("--json", action="store_true",
                             help="machine-readable report")
    p_tracediff.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any aligned query regresses beyond the bands",
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
    p_serve.add_argument(
        "--sf", type=float, default=0.01,
        help="functional TPC-H scale factor (default 0.01)",
    )
    p_serve.add_argument(
        "--sample-interval", type=float, default=1.0, metavar="S",
        help="time-series sampler cadence in seconds; 0 disables the "
        "sampler, /timeseries and /dashboard (default 1.0)",
    )
    p_serve.add_argument(
        "--slo-p99-ms", type=float, default=250.0, metavar="MS",
        help="latency-SLO threshold: fraction of queries above this "
        "drives the burn rate (default 250)",
    )
    p_serve.add_argument(
        "--no-slo", action="store_true",
        help="sample without evaluating SLO objectives",
    )
    p_serve.add_argument(
        "--loop", action="store_true",
        help="replay the --warm queries forever on a background "
        "thread, so the dashboard shows live traffic",
    )
    p_serve.add_argument(
        "--loop-interval", type=float, default=1.0, metavar="S",
        help="pause between --loop replay rounds (default 1.0)",
    )
    p_serve.add_argument(
        "--query-log", metavar="FILE", default=None,
        help="also append wide events to FILE (JSONL); without it the "
        "query log stays in-memory (ring + fleet metrics only)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_top = sub.add_parser(
        "top", help="live terminal fleet view (QPS, p50/p99, SLOs)"
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:9463",
        help="base URL of a running `repro serve` (default "
        "http://127.0.0.1:9463)",
    )
    p_top.add_argument(
        "--window", type=float, default=60.0, metavar="S",
        help="rolling window in seconds (default 60)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="repaint interval in seconds (default 2.0)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (pipe-friendly)",
    )
    p_top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    p_top.add_argument(
        "--no-color", action="store_true",
        help="plain text without ANSI styling",
    )
    p_top.add_argument(
        "--demo", action="store_true",
        help="no server: run a few queries in-process and show them",
    )
    p_top.add_argument(
        "--sf", type=float, default=0.001,
        help="--demo scale factor (default 0.001)",
    )
    p_top.set_defaults(func=cmd_top)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
