"""Rounds, calibrated intervals, result checks and metric estimation.

A run is an untimed *prepare* (a child process generates the catalog,
saves it and computes reference results on another execution path)
followed by **rounds**.  Each round is one cold *set-up* — load the
catalog from disk, build plans and executors, execute every query once,
checking each result — and a few warm passes over the query list.
Re-loading every round re-samples memory layout and gives one set-up
sample per round instead of one per run.

The calibration kernel runs before every set-up and pass and after
every n-th query; its time is excluded from what is measured and turns
wall clock into *reference time* (see ``calib.py``).  Every timed
estimate is a median of such samples: no minima, no single shots.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calib import Kernel, slowdown
from check import digest, mismatch
from layers import (
    HOST_LAYERS,
    PASS_LAYERS,
    pass_layer_ms,
    self_ms_by_span,
    setup_layer_ms,
)
from workloads import (
    BENCH_DIR,
    DEFAULT_SEED,
    SIMULATED_SF,
    Workload,
)

from repro.obs import METRICS, NULL_TRACER, Tracer, set_global_tracer
from repro.obs import write_chrome_trace
from repro.perf.report import SYSTEM_FACTORIES
from repro.perf.scaling import scale_trace
from repro.perf.tpch_eval import GROUP_DOMAINS
from repro.storage.io import load_catalog

OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"
WARMUP_KERNEL_RUNS = 20
MIN_ROUNDS = 6          # untraced rounds a gated run never goes below
MIN_TRACED_PAIRS = 2    # (untraced, traced) round pairs of a traced run
PAGE_COUNTERS = {
    "flash.pages_read": ("flash.pages_read", "device.flash_pages_read"),
    "flash.pages_skipped": (
        "flash.pages_skipped", "device.flash_pages_skipped",
    ),
}


# -- estimators --------------------------------------------------------------


def summarise_queries(samples: dict[str, list[float]]) -> dict[str, float]:
    """The three per-query metrics from reference-time samples (s).

    Each query is represented by the median of its samples; the pass is
    their sum, the geomean weighs every query the same, the max is the
    slowest query a user waits for.
    """
    medians = [statistics.median(s) for s in samples.values()]
    return {
        "pass_s": math.fsum(medians),
        "query_ms_geomean": statistics.geometric_mean(medians) * 1e3,
        "query_ms_max": max(medians) * 1e3,
    }


# -- measured intervals ------------------------------------------------------


@dataclass
class Interval:
    """One set-up or one pass: its timed work, and the kernel runs
    interleaved with that work."""

    interpreter_share: float         # the workload's, see calib.py
    wall: float = 0.0
    kernel: list[tuple[float, float]] = field(default_factory=list)
    walls: dict[str, float] = field(default_factory=dict)
    t0_ns: int = 0
    t1_ns: int = 0

    def calibrate(self, kernel: Kernel, tracer) -> None:
        with tracer.span("bench.calib"):
            self.kernel.append(kernel.timed())

    @property
    def slowdown(self) -> float:
        """Machine slowdown over this interval (1.0 = nominal)."""
        return slowdown(
            statistics.fmean(k[0] for k in self.kernel),
            statistics.fmean(k[1] for k in self.kernel),
            self.interpreter_share,
        )

    def ref(self, wall: float) -> float:
        """``wall`` re-expressed at the nominal machine speed."""
        return wall / self.slowdown


@dataclass
class Round:
    traced: bool
    setup: Interval
    began_ns: int                       # start of load + construct ...
    constructed_ns: int                 # ... and its end
    passes: list[Interval]
    sim: dict[str, tuple[float, int]]   # query -> (runtime_s, bytes)
    counts: dict[str, float]


@dataclass
class Report:
    attempted: int
    failed: int
    failures: list[str]
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None   # traced runs only
    harness: dict[str, float]
    digests: dict[str, dict]             # first-pass result digests

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- prepare -----------------------------------------------------------------


def prepare_in_child(workload: Workload, seed: int, out: Path) -> dict:
    """Generate, save and compute references in a separate process.

    A child keeps ``generate``'s peak memory (larger than anything the
    measured paths allocate) out of this process's ``ru_maxrss``, and
    its heap fragmentation out of the measured rounds.
    """
    subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "prepare.py"),
            "--workload", workload.name,
            "--scale-factor", str(workload.scale_factor),
            "--seed", str(seed),
            "--out", str(out),
        ],
        check=True,
    )
    return json.loads((out / "prepare.json").read_text())


def committed_digests(workload: Workload, seed: int) -> dict | None:
    """The digests in ``expected/`` — they describe DEFAULT_SEED only."""
    if not workload.digests or seed != DEFAULT_SEED:
        return None
    doc = json.loads((EXPECTED_DIR / f"{workload.name}.json").read_text())
    return doc["digests"]


# -- the measurement ---------------------------------------------------------


class Measurement:
    """State of one run: its references and its operation counters."""

    def __init__(self, workload: Workload, seed: int, catalog_dir: Path,
                 reference: dict[str, dict], committed: dict | None,
                 selfcheck: bool = False):
        self.workload = workload
        self.seed = seed
        self.catalog_dir = catalog_dir
        self.reference = reference
        self.committed = committed
        self.selfcheck = selfcheck
        self.kernel = Kernel()
        self.model = SYSTEM_FACTORIES[workload.system]()
        self.attempted = 0
        self.failures: list[str] = []
        self.first_sim: dict[str, tuple[float, int]] | None = None
        self.digests: dict[str, dict] = {}
        if selfcheck:
            # Prove the checker live: one reference digest is wrong from
            # the start, one simulated total after the first round.
            victim = next(iter(self.reference))
            self.reference[victim] = {
                **self.reference[victim],
                "rows": self.reference[victim]["rows"] + 1,
            }

    # -- one operation --------------------------------------------------------

    def _timed_op(self, runner, name: str, tracer):
        """Run one query; returns ``(wall, outcome)`` or ``(0, None)``.

        A raising query is a failed operation, not a failed run: it is
        recorded with its traceback and the pass carries on.
        """
        self.attempted += 1
        try:
            with tracer.span("bench.query", query=name):
                t0 = time.perf_counter()
                outcome = runner.run(name)
                wall = time.perf_counter() - t0
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return 0.0, None
        return wall, outcome

    def _check(self, name: str, outcome, tracer, sim: dict) -> None:
        """Result check of a first execution, and its simulated cost."""
        with tracer.span("bench.check"):
            got = digest(outcome.table)
            self.digests[name] = got
            why = mismatch(got, self.reference[name])
            if why is None and self.committed is not None:
                why = mismatch(got, self.committed[name])
            if why is not None:
                self.failures.append(f"{name}: result mismatch: {why}")
        with tracer.span("perf.model"):
            timing = self.model.time_query(
                scale_trace(
                    outcome.trace, SIMULATED_SF,
                    group_domains=GROUP_DOMAINS,
                )
            )
        trace = outcome.trace
        sim[name] = (
            timing.runtime_s,
            trace.total_flash_bytes + trace.aquoman_flash_bytes,
        )

    # -- passes and rounds ----------------------------------------------------

    def _run_pass(self, runner, interval: Interval, tracer,
                  first: dict | None = None) -> list:
        """Every query once, in fixed order.  ``first`` collects the
        simulated totals when this is a round's checked first pass."""
        outcomes = []
        interval.t0_ns = time.monotonic_ns()
        for i, name in enumerate(runner.names, 1):
            wall, outcome = self._timed_op(runner, name, tracer)
            if outcome is not None:
                interval.wall += wall
                interval.walls[name] = wall
                if first is not None:
                    self._check(name, outcome, tracer, first)
                    outcomes.append(outcome)
            if tracer.enabled:
                runner.aside(name)
            if i % self.workload.calib_every == 0:
                interval.calibrate(self.kernel, tracer)
        interval.t1_ns = time.monotonic_ns()
        return outcomes

    def run_round(self, tracer=NULL_TRACER, workers: int = 1) -> Round:
        gc.unfreeze()
        gc.collect()
        before = METRICS.snapshot()
        setup = Interval(self.workload.interpreter_share)
        setup.calibrate(self.kernel, tracer)
        sim: dict[str, tuple[float, int]] = {}
        with tracer.span("bench.setup"):
            began_ns = time.monotonic_ns()
            t0 = time.perf_counter()
            with tracer.span("storage.load"):
                catalog = load_catalog(
                    self.catalog_dir, mmap=self.workload.mmap
                )
            runner = self.workload.runner(
                catalog, self.seed, tracer, workers
            )
            setup.wall += time.perf_counter() - t0
            constructed_ns = time.monotonic_ns()
            outcomes = self._run_pass(runner, setup, tracer, first=sim)
        counts = _counts(outcomes, before, METRICS.snapshot())
        del outcomes
        # Set-up's garbage is collected and its survivors (catalog,
        # plans) leave the collector's sight; the collector itself
        # stays on during the passes, as it is for users.
        gc.collect()
        gc.freeze()
        passes = []
        for _ in range(self.workload.passes):
            interval = Interval(self.workload.interpreter_share)
            interval.calibrate(self.kernel, tracer)
            self._run_pass(runner, interval, tracer)
            passes.append(interval)
        if workers > 1:
            _close_process_pool(catalog, workers)
        if self.first_sim is None:
            self.first_sim = dict(sim)
            if self.selfcheck:
                victim = next(iter(sim))
                self.first_sim[victim] = (sim[victim][0] * 1.5,
                                          sim[victim][1])
        elif workers == 1:
            # A deterministic simulator repeats its statistics exactly
            # (the process backend models to other totals: not compared).
            self.failures.extend(
                f"{name}: simulated totals moved between rounds: "
                f"{self.first_sim.get(name)} -> {totals}"
                for name, totals in sim.items()
                if totals != self.first_sim.get(name)
            )
        return Round(
            tracer.enabled, setup, began_ns, constructed_ns, passes, sim,
            counts,
        )


def _counts(outcomes, before: dict, after: dict) -> dict[str, float]:
    """The counts one checked first pass produced: what each layer
    did, as opposed to how long it took."""
    traces = [o.trace for o in outcomes]
    meters = [o.meters for o in outcomes if o.meters is not None]
    counts: dict[str, float] = {
        "engine.rows_processed": sum(t.rows_processed() for t in traces),
        "engine.peak_host_bytes": max(
            (t.peak_host_bytes for t in traces), default=0
        ),
        "flash.bytes_host": sum(t.total_flash_bytes for t in traces),
        "flash.bytes_device": sum(t.aquoman_flash_bytes for t in traces),
        "core.suspended_queries": sum(t.suspended for t in traces),
        "core.offload_fraction_rows": (
            statistics.fmean(t.offload_fraction_rows for t in traces)
            if traces else 0.0
        ),
    }
    for name in ("tasks_run", "rows_selected", "rows_transformed",
                 "pe_fallback_exprs", "spilled_groups"):
        counts[f"core.{name}"] = sum(getattr(m, name) for m in meters)
    for metric, counters in PAGE_COUNTERS.items():
        counts[metric] = sum(
            after.get(c, 0) - before.get(c, 0) for c in counters
        )
    pages = counts["flash.pages_read"] + counts["flash.pages_skipped"]
    counts["flash.skip_ratio"] = (
        counts["flash.pages_skipped"] / pages if pages else 0.0
    )
    return counts


def _close_process_pool(catalog, workers: int) -> None:
    from repro.engine import procpool

    pool = procpool.get_process_pool(catalog, workers)
    if pool is not None:
        pool.close()


# -- from rounds to metrics --------------------------------------------------


def _warm_samples(rounds: list[Round]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for rnd in rounds:
        for interval in rnd.passes:
            for name, wall in interval.walls.items():
                samples.setdefault(name, []).append(interval.ref(wall))
    return samples


def end_to_end_metrics(rounds: list[Round]) -> dict[str, float]:
    """The gated metrics, from untraced rounds only."""
    first = rounds[0]
    return {
        "setup_s": statistics.median(
            r.setup.ref(r.setup.wall) for r in rounds
        ),
        **summarise_queries(_warm_samples(rounds)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "sim_runtime_s": math.fsum(s[0] for s in first.sim.values()),
        "sim_flash_bytes": sum(s[1] for s in first.sim.values()),
    }


def harness_metrics(rounds: list[Round]) -> dict[str, float]:
    """Uncorrected wall clock, and how far the machine wandered."""
    intervals = [i for r in rounds for i in (r.setup, *r.passes)]
    factors = [i.slowdown for i in intervals]
    samples = _warm_samples(rounds)
    return {
        "harness.calib_ms": statistics.median(
            sum(k) * 1e3 for i in intervals for k in i.kernel
        ),
        "harness.speed_factor_min": min(factors),
        "harness.speed_factor_max": max(factors),
        "harness.wall_pass_s": statistics.median(
            i.wall for r in rounds for i in r.passes
        ),
        "harness.wall_setup_s": statistics.median(
            r.setup.wall for r in rounds
        ),
        "harness.samples_per_query": min(len(s) for s in samples.values()),
        "harness.rounds": len(rounds),
        "harness.cpu_count": os.cpu_count() or 1,
    }


def per_layer_metrics(plain: list[Round], traced: list[Round], records,
                      prep: dict, on_device: bool) -> dict[str, float]:
    """Layer times (reference ms, median over traced passes), counts
    from the first checked pass, and the tracing overhead."""
    records = sorted(records, key=lambda rec: rec[2])
    starts = [rec[2] for rec in records]

    def begun_in(t0_ns: int, t1_ns: int) -> list:
        return records[bisect.bisect_left(starts, t0_ns):
                       bisect.bisect_left(starts, t1_ns)]

    per_pass: dict[str, list[float]] = {}
    sums, spans = [], []
    for interval in (i for rnd in traced for i in rnd.passes):
        window = begun_in(interval.t0_ns, interval.t1_ns)
        layer_ms = pass_layer_ms(window)
        for name, ms in layer_ms.items():
            per_pass.setdefault(name, []).append(ms / interval.slowdown)
        timed = math.fsum(layer_ms[name] for name in PASS_LAYERS)
        sums.append(100.0 * timed / (interval.wall * 1e3))
        spans.append(sum(rec[0] == "morsel.span" for rec in window))
    out = {name: statistics.median(v) for name, v in per_pass.items()}
    out["core.host_fallback_ms"] = (
        math.fsum(out[name] for name in HOST_LAYERS) if on_device else 0.0
    )

    per_setup: dict[str, list[float]] = {}
    for rnd in traced:
        layer_ms = setup_layer_ms(begun_in(rnd.began_ns, rnd.constructed_ns))
        layer_ms["perf.model_ms"] = self_ms_by_span(
            begun_in(rnd.constructed_ns, rnd.setup.t1_ns)
        ).get("perf.model", 0.0)
        for name, ms in layer_ms.items():
            per_setup.setdefault(name, []).append(ms / rnd.setup.slowdown)
    out.update({n: statistics.median(v) for n, v in per_setup.items()})

    out.update(traced[0].counts)
    out["engine.morsel_spans"] = statistics.median(spans)
    out["storage.bytes_on_disk"] = prep["bytes_on_disk"]
    out["tpch.generate_s"] = prep["generate_s"]
    out["storage.save_s"] = prep["save_s"]
    out["engine.procpool_pass_s"] = 0.0   # measured on tpch_stream only
    untraced_pass = summarise_queries(_warm_samples(plain))["pass_s"]
    traced_pass = summarise_queries(_warm_samples(traced))["pass_s"]
    out["harness.trace_overhead_pct"] = (
        100.0 * (traced_pass - untraced_pass) / untraced_pass
    )
    out["harness.layer_sum_pct"] = statistics.median(sums)
    return out


# -- entry point -------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool = False, selfcheck: bool = False,
            use_committed: bool = True) -> Report:
    """One whole run of one workload; see the module docstring."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(
        dir=OUT_DIR, prefix=f"{workload.name}-"
    ) as tmp:
        prep = prepare_in_child(workload, seed, Path(tmp))
        m = Measurement(
            workload, seed, Path(tmp) / "catalog", prep["references"],
            committed_digests(workload, seed) if use_committed else None,
            selfcheck,
        )
        for _ in range(WARMUP_KERNEL_RUNS):
            m.kernel.run()
        tracer = Tracer(ring_capacity=1 << 22) if trace else None
        least = MIN_TRACED_PAIRS if trace else MIN_ROUNDS
        if selfcheck:
            least = 2
        plain: list[Round] = []
        traced: list[Round] = []
        began = time.perf_counter()
        while True:
            plain.append(m.run_round())
            if tracer is not None:
                # Storage and analysis record on the ambient tracer.
                set_global_tracer(tracer)
                try:
                    traced.append(m.run_round(tracer))
                finally:
                    set_global_tracer(None)
            laps = len(plain)
            elapsed = time.perf_counter() - began
            if laps >= least and elapsed * (laps + 1) / laps > seconds:
                break
        per_layer = None
        if tracer is not None:
            records = [rec for _thread, rec in tracer.records()]
            per_layer = per_layer_metrics(
                plain, traced, records, prep,
                on_device=workload.path == "device",
            )
            if workload.path == "stream":
                per_layer["engine.procpool_pass_s"] = _procpool_pass_s(m)
            write_chrome_trace(
                tracer, str(OUT_DIR / f"{workload.name}.trace.json"),
                {"workload": workload.name, "seed": seed},
            )
        return Report(
            attempted=m.attempted,
            failed=len(m.failures),
            failures=m.failures,
            end_to_end=end_to_end_metrics(plain),
            per_layer=per_layer,
            harness=harness_metrics(plain),
            digests=m.digests,
        )


def _procpool_pass_s(m: Measurement) -> float:
    """One extra, ungated round with the process backend on up to two
    workers: the number the one-execution-path item needs.  Its pool is
    closed when the round ends."""
    rnd = m.run_round(workers=min(2, os.cpu_count() or 1))
    return summarise_queries(_warm_samples([rnd]))["pass_s"]


def write_expected(workload: Workload, report: Report) -> Path:
    """Commit this run's digests as the expectation for DEFAULT_SEED."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload.name}.json"
    path.write_text(
        json.dumps(
            {"seed": DEFAULT_SEED, "digests": report.digests}, indent=1
        ) + "\n"
    )
    return path
