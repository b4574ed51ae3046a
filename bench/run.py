"""Run one benchmark workload and print every metric by name.

    python bench/run.py --workload tpch_host
    python bench/run.py --workload tpch_stream --seed 7 --trace 1
    python bench/run.py --workload tpch_host --selfcheck

An untraced run prints the end-to-end metrics (and the raw wall clock
beside them); ``--trace 1`` prints the per-layer table instead and
writes ``bench/out/<workload>.trace.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any result check failed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import envpin

BENCH_JSON = envpin.ROOT / "BENCHMARK.json"


def _terminate(signum, _frame) -> None:
    # Unwind through the ``with`` blocks so the temporary catalog goes.
    raise SystemExit(128 + signum)


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(f"# {title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>18.6f}  {unit}")


def main(argv: list[str]) -> int:
    envpin.reexec_pinned()
    envpin.use_checkout_source()
    from harness import measure, write_expected
    from layers import END_TO_END, PER_LAYER
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads(BENCH_JSON.read_text())["run_seconds"],
        help="how long to measure (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0,
        choices=(0, 1), help="1 = traced run, per-layer metrics",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="corrupt one reference digest and one simulated total in "
             "memory; the run must then report failures",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help="commit this run's result digests to bench/expected/ "
             "(default seed only; for when the statements change)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.write_expected and (
        not workload.digests or args.seed != DEFAULT_SEED
    ):
        parser.error("--write-expected needs a digest workload at the "
                     "default seed")

    signal.signal(signal.SIGTERM, _terminate)
    report = measure(
        workload, args.seed, args.seconds,
        trace=bool(args.trace), selfcheck=args.selfcheck,
        use_committed=not args.write_expected,
    )

    units = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}
    if args.trace:
        values = {**report.per_layer, **report.harness}
        metrics = {name: values[name] for name, *_ in PER_LAYER}
        _print_table(f"{workload.name}: per-layer (traced run)",
                     [(n, v, units[n]) for n, v in metrics.items()])
    else:
        metrics = {name: report.end_to_end[name] for name, *_ in END_TO_END}
        _print_table(f"{workload.name}: end-to-end (reference time)",
                     [(n, v, units[n]) for n, v in metrics.items()])
        _print_table("uncorrected wall clock and machine speed",
                     [(n, v, units[n]) for n, v in report.harness.items()])
    print(f"ops_attempted {report.attempted}  ops_failed {report.failed}")
    for failure in report.failures:
        print(f"FAILED {failure}")
    if args.write_expected and report.correct:
        print(f"wrote {write_expected(workload, report)}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
