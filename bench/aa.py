"""A/A noise check: the same code, run again and again.

    python bench/aa.py                    # 5 runs of every workload
    python bench/aa.py --runs 10 --vary-seed
    python bench/aa.py --jobs 2           # two workloads side by side

Runs every workload N times back to back and prints, per end-to-end
metric, min / median / max, the largest pairwise relative difference
and the interquartile spread (Q3 - Q1 over the median, the figure the
benchmark's bounds are sized against), next to the metric's bound in
``BENCHMARK.json``.  Exits non-zero when a difference exceeds its
bound.  With ``--vary-seed`` run *i* uses seed *i*, so the spread also
contains what different data does to a metric.  Its output on the
builder's box is committed as ``NOISE.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCH_JSON = BENCH_DIR.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run.py process; returns its result object."""
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"aa: {workload} seed {seed} exited {done.returncode}:\n"
            + done.stdout[-2000:]
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(largest pairwise relative difference, IQR over median)."""
    pairwise = (max(values) - min(values)) / min(values)
    if len(values) < 2:
        return pairwise, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return pairwise, (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    spec = json.loads(BENCH_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i")
    parser.add_argument("--jobs", type=int, default=1,
                        help="workloads measured side by side")
    args = parser.parse_args(argv)

    def series(workload: str) -> list[dict]:
        return [
            run_once(workload,
                     args.seed + (i if args.vary_seed else 0),
                     args.seconds)
            for i in range(args.runs)
        ]

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = dict(
            zip(args.workloads, pool.map(series, args.workloads),
                strict=True)
        )

    seeds = (f"seeds {args.seed}..{args.seed + args.runs - 1}"
             if args.vary_seed else f"seed {args.seed}")
    print(f"A/A: {args.runs} runs per workload, {args.seconds} s each, "
          f"{seeds}, {args.jobs} side by side\n")
    print("| workload | metric | min | median | max | pairwise "
          "| IQR/median | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    exceeded = 0
    for workload, runs in results.items():
        bad = [r for r in runs if not r["correct"]]
        if bad:
            print(f"| {workload} | **{len(bad)} incorrect run(s)** "
                  "| | | | | | | FAIL |")
            exceeded += 1
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            pairwise, iqr = spread(values)
            ok = pairwise <= metric["bound"]
            exceeded += not ok
            print(
                f"| {workload} | {metric['name']} ({metric['unit']}) "
                f"| {min(values):.6g} | {statistics.median(values):.6g} "
                f"| {max(values):.6g} | {pairwise:.2%} | {iqr:.2%} "
                f"| {metric['bound']:.0%} | {'ok' if ok else 'FAIL'} |"
            )
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
