"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``query``    — run a TPC-H query (by number) or a SQL string, on the
  baseline engine and/or the AQUOMAN simulator;
- ``evaluate`` — the full Fig. 16 evaluation (all 22 queries, five
  system configurations, SF-1000 scaling);
- ``generate`` — write a TPC-H catalog as on-disk column files;
- ``analyze``  — static analysis: typecheck, suspend prediction,
  PE-program verification and morsel-safety proofs, without executing;
- ``doctor``   — explain one run: the morsel-parallel host engine and
  the simulator on the same plan under one tracer, giving critical-path
  attribution across host/worker/device lanes, the modeled bottleneck
  with what-if projections, and the explain-analyze table that joins
  the static analyzer's predictions, each node's offload decision
  (DEVICE, or host with its reason) and the observed actuals;
  ``--trace-out`` writes the run's ``chrome://tracing`` timeline,
  ``--ring-capacity`` sizes its span rings, and ``--json`` /
  ``--strict`` shape the report.

``query`` and ``evaluate`` also record a run two ways: ``--trace-out``
writes its Chrome trace and ``--query-log FILE`` appends one wide event
per query.  Every span in the trace carries its query's ``qid``, so
one query's part of the trace is a filter over it.  One
:func:`_obs_session` runs that sequence for both.

SQL that does not parse or plan, or a plan the strict analyzer
rejects, prints one ``error: …`` line on stderr and exits 2.  An
argument argparse rejects (a TPC-H number outside 1–22, a scale factor
that is not positive) exits 2 as well, after the usage line.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Iterator

from repro import tpch
from repro.analysis import PlanRejected
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.engine.morsel import (
    TUNED_MORSEL_ROWS,
    WORKER_BACKENDS,
    MorselConfig,
)
from repro.obs import (
    QueryLog,
    Tracer,
    set_global_tracer,
    set_query_log,
    validate_chrome_trace,
    warn_dropped_spans,
    write_chrome_trace,
)
from repro.perf.trace import QueryTrace
from repro.sqlir import PlanningError, SqlSyntaxError, plan_sql
from repro.util.units import GB, fmt_bytes


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sf", type=_positive_float, default=0.01,
        help="functional TPC-H scale factor (default 0.01)",
    )
    parser.add_argument(
        "--target-sf", type=_positive_float, default=1000.0,
        help="simulated scale factor for device decisions "
        "(default 1000)",
    )


def _add_query(parser: argparse.ArgumentParser) -> None:
    """The query selector: a TPC-H number or a SQL string."""
    parser.add_argument("number", type=int, nargs="?", metavar="number",
                        choices=tpch.ALL_QUERIES,
                        help="TPC-H query number (1-22)")
    parser.add_argument("--sql", help="a SQL string instead")


def _add_device(
    parser: argparse.ArgumentParser, no_device: bool = False
) -> None:
    parser.add_argument("--dram-gb", type=float, default=40.0)
    if no_device:
        parser.add_argument("--no-device", action="store_true")


def _add_report(parser: argparse.ArgumentParser, *, strict: str) -> None:
    """How a command reports: ``--json`` and ``--strict`` (``strict``
    is the per-command help text)."""
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    parser.add_argument("--strict", action="store_true", help=strict)


def _add_trace_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace-event JSON (chrome://tracing)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    _add_trace_out(parser)
    parser.add_argument(
        "--query-log", metavar="FILE",
        help="append one wide event per query (JSONL): fingerprint, "
        "wall time, critical-path buckets, counters, faults",
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

    Yields a live tracer when either record was requested, else
    ``None`` and does nothing.  Around the block: the
    tracer installed as the ambient one (so module-level spans —
    storage I/O, the analysis passes, injector fault instants — land
    in the same timeline) and the query log installed; after it: both
    uninstalled, the log summarised, a dropped-span warning, and the
    ``--trace-out`` export stamped with ``metadata`` (a dict the
    caller may fill in during the block).
    """
    if not (args.query_log or args.trace_out):
        yield None
        return
    tracer = Tracer()
    log = QueryLog(args.query_log) if args.query_log else None
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
    if args.trace_out:
        doc = write_chrome_trace(tracer, args.trace_out,
                                 metadata=metadata)
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - exporter self-check
            raise SystemExit(
                f"invalid trace export: {'; '.join(problems)}"
            )
        print(f"chrome trace: {args.trace_out} "
              f"(load in chrome://tracing)", file=sys.stderr)


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


def cmd_generate(args) -> int:
    from repro.storage.io import save_catalog

    db = tpch.generate(args.sf)
    manifest = save_catalog(db, args.directory)
    print(f"wrote {fmt_bytes(db.nbytes)} of column files")
    print(f"manifest: {manifest}")
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
    """Explain one run: critical path, bottleneck, explain-analyze."""
    from repro.obs.doctor import diagnose, report_json

    db = tpch.generate(args.sf)
    plan = _plan_of(args, db)
    name = _query_name(args)
    tracer = Tracer(args.ring_capacity)
    report = diagnose(
        db,
        plan,
        name,
        target_sf=args.target_sf,
        dram_gb=args.dram_gb,
        workers=args.workers,
        morsel_rows=args.morsel_rows,
        backend=args.backend,
        tracer=tracer,
    )
    print(report_json(report) if args.json else report.format())
    warn_dropped_spans(report.n_dropped_spans, "doctor")
    _export_obs(tracer, args, query=name)
    if args.strict and report.mispredictions:
        return 1
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

    p_generate = sub.add_parser(
        "generate", help="write a TPC-H catalog as column files"
    )
    p_generate.add_argument("directory")
    _add_common(p_generate)
    p_generate.set_defaults(func=cmd_generate)

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
        help="explain one run: critical path, bottleneck, what-ifs, "
        "per-node offload decisions and explain-analyze",
    )
    _add_query(p_doctor)
    _add_device(p_doctor)
    p_doctor.add_argument("--workers", type=int, default=4,
                          help="morsel workers = trace lanes (default 4)")
    p_doctor.add_argument(
        "--backend", choices=WORKER_BACKENDS,
        default=MorselConfig.worker_backend,
        help="morsel worker backend; 'process' adds proc-worker-N "
        "lanes to the trace (default %(default)s)",
    )
    p_doctor.add_argument(
        "--morsel-rows", type=int, default=TUNED_MORSEL_ROWS,
        help="rows per morsel (default %(default)s, bench-tuned)",
    )
    p_doctor.add_argument(
        "--ring-capacity", type=int, default=None,
        help="span ring size per trace lane (default 65536); the run "
        "warns when spans were dropped",
    )
    _add_trace_out(p_doctor)
    _add_report(
        p_doctor,
        strict="exit 1 when any estimate-vs-actual row mispredicts",
    )
    _add_common(p_doctor)
    p_doctor.set_defaults(func=cmd_doctor)

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
