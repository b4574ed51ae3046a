"""The query doctor: where did this query's time go, and what would
fixing it buy?

``python -m repro doctor <q>`` runs one TPC-H query twice — on the
morsel-parallel host engine and on the AQUOMAN simulator — under a live
tracer, then answers three questions:

**Critical path & attribution.**  The recorded span forest
(:mod:`repro.obs.critpath`) yields the run's critical path, per-lane
utilization and a bucket attribution of *runtime* wall-clock.  Runtime
alone would always blame the Python host, so the headline *bottleneck*
verdict comes from the performance model instead: the traces are scaled
to the target SF and the components (host CPU, flash I/O, Swissknife
sorter, output DMA, swap) are read off
:meth:`~repro.perf.model.SystemModel.time_query` and
:meth:`~repro.perf.model.SystemModel.device_terms` — for a flash-bound
query like Q6 that names flash I/O, matching the paper's Sec. VIII
analysis.

**What-if projections.**  Each one replays the model under a changed
configuration: 2× flash channels (doubled device line rate, halved host
scan I/O), 2× morsel workers (doubled hardware threads), and device off
(host-only model on the host trace).

**Explain-analyze.**  The static analyzer's per-node predictions
(schemas, AQ2xx suspend verdicts) join against per-node actuals carried
on spans (``node=`` / ``nodes=`` args threaded through the executors)
and the modeled flash traffic, flagging mispredictions.  Each row also
carries the compiler's offload decision for its node — DEVICE, or host
with the suspend reason — as the simulator run compiled it.

Everything downstream of trace collection is a pure function of the
collected inputs (:func:`build_report`), so a fixed trace fixture
yields byte-identical doctor output — the determinism contract the
tests pin.

Layering note: unlike its siblings this module imports the engine,
simulator and perf model (it *drives* them), so ``repro.obs.__init__``
does not re-export it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from repro.analysis import Verdict, analyze_plan, node_schemas
from repro.analysis.diagnostics import AnalysisReport
from repro.core.compiler import CompiledQuery
from repro.core.device import DeviceConfig
from repro.core.simulator import AquomanSimulator, SimulationResult
from repro.engine.executor import Engine
from repro.engine.morsel import MorselConfig
from repro.obs.critpath import CritPathAnalysis, analyze_records
from repro.obs.spans import INSTANT, SpanRecord, Tracer
from repro.perf.model import (
    AquomanConfig,
    HOST_S,
    HostConfig,
    QUERY_OVERHEAD_S,
    SystemModel,
)
from repro.perf.scaling import scale_trace
from repro.perf.tpch_eval import GROUP_DOMAINS
from repro.perf.trace import QueryTrace
from repro.sqlir.plan import Plan, Scan
from repro.util.units import GB

__all__ = [
    "DoctorReport",
    "WhatIf",
    "build_report",
    "diagnose",
    "suspend_scorecard",
]

# Model components eligible to be "the bottleneck".  The fixed
# per-query overhead is excluded: it is real time but not actionable.
MODEL_COMPONENTS = ("host_cpu", "flash_io", "swissknife", "dma", "swap")


# ---------------------------------------------------------------------------
# Suspend scorecard: predictions vs one simulator run
# ---------------------------------------------------------------------------


def suspend_scorecard(
    report: AnalysisReport, sim: SimulationResult
) -> list[dict[str, Any]]:
    """Score each AQ2xx suspend prediction against what the simulator
    actually did.

    Mirrors the cross-validation contract of
    ``tests/test_analysis.py::TestSuspendAgreement`` exactly: NEVER
    must not be observed, ALWAYS must be, the GROUP_SPILL bracket must
    contain the observed spill count, and the DRAM bracket must bound
    the observed peak.
    """
    observed = {r.name for r in sim.suspend_reasons}
    spill = sim.trace.groupby_spill_groups
    peak = (
        sim.device.memory.peak_effective if sim.device is not None else 0
    )
    rows: list[dict[str, Any]] = []
    for name in sorted(report.suspend):
        p = report.suspend[name]
        ok = True
        note = ""
        if p.verdict is Verdict.NEVER and name in observed:
            ok, note = False, "predicted NEVER but suspended"
        elif p.verdict is Verdict.ALWAYS and name not in observed:
            ok, note = False, "predicted ALWAYS but did not suspend"
        if name == "GROUP_SPILL" and p.verdict is not Verdict.NEVER:
            if spill < p.lo or (p.hi is not None and spill > p.hi):
                ok, note = False, (
                    f"spill {spill} outside bracket "
                    f"[{p.lo:g}, {'?' if p.hi is None else f'{p.hi:g}'}]"
                )
        if name == "DRAM_EXCEEDED" and p.hi is not None and peak > p.hi:
            ok, note = False, f"DRAM peak {peak} above bound {p.hi:g}"
        observed_text = name in observed and "suspended" or "-"
        if name == "GROUP_SPILL":
            observed_text = f"spill={spill}"
        elif name == "DRAM_EXCEEDED":
            observed_text = f"peak={peak}"
        rows.append({
            "reason": name,
            "predicted": p.describe(),
            "observed": observed_text,
            "ok": ok,
            "note": note,
        })
    return rows


# ---------------------------------------------------------------------------
# Per-node actuals from span records
# ---------------------------------------------------------------------------


# What a ``morsel.fragment`` span says about the traffic it streamed.
FRAGMENT_CENSUS = (
    "rows_in", "cp_terms", "leftover_columns", "passthrough_spans",
)


def _span_window(
    records: list[tuple[str, SpanRecord]], name: str
) -> tuple[int, int]:
    """The (t0, t1) interval of the longest span named ``name``."""
    best = None
    for _, rec in records:
        if rec[0] == name and rec[3] != INSTANT:
            if best is None or rec[3] > best[3]:
                best = rec
    if best is None:
        return (0, 0)
    return best[2], best[2] + best[3]


def _node_actuals(
    records: list[tuple[str, SpanRecord]],
    host_window: tuple[int, int],
) -> dict[int, dict[str, Any]]:
    """Join-key side of explain-analyze: per-node actuals from spans.

    Host actuals come from spans inside the host run's window (the
    simulator's HybridEngine emits identical ``engine.*`` spans for its
    host remainder — windowing keeps the two runs apart); device
    actuals from ``device.*`` spans, which only the simulator emits.
    Morsel fragments subsume several plan nodes: every covered node is
    marked streamed, and the fragment's output and its census
    (:data:`FRAGMENT_CENSUS`) land on its root (pre-order ids make that
    the min of the covered set).
    """
    actuals: dict[int, dict[str, Any]] = {}

    def slot(node_id: int) -> dict[str, Any]:
        return actuals.setdefault(node_id, {
            "host_rows_out": None,
            "host_self_ms": 0.0,
            "device_rows_out": None,
            "device_self_ms": 0.0,
            "streamed": False,
            "offloaded": False,
        })

    lo, hi = host_window
    for _, rec in records:
        name, _lane, t0, dur, _depth, self_ns, args = rec
        if dur == INSTANT or not args:
            continue
        in_host_run = lo <= t0 and t0 + dur <= hi
        if name.startswith("engine.") and in_host_run:
            node = args.get("node")
            if node is None:
                continue
            d = slot(node)
            d["host_rows_out"] = args.get("rows_out")
            d["host_self_ms"] += self_ns / 1e6
        elif name == "morsel.fragment" and in_host_run:
            nodes = args.get("nodes") or []
            for node in nodes:
                slot(node)["streamed"] = True
            if nodes:
                root = slot(min(nodes))
                root["host_rows_out"] = args.get("rows_out")
                root["host_self_ms"] += self_ns / 1e6
                root["fragment"] = {k: args.get(k) for k in FRAGMENT_CENSUS}
        elif name.startswith("device.") and args.get("node") is not None:
            d = slot(args["node"])
            d["offloaded"] = True
            if name != "device.subtree":
                d["device_rows_out"] = args.get("rows_out")
            d["device_self_ms"] += self_ns / 1e6
    return actuals


def _explain_rows(
    plan: Plan,
    predictions: dict[int, dict],
    actuals: dict[int, dict[str, Any]],
    host_trace: QueryTrace,
    compiled: CompiledQuery,
) -> list[dict[str, Any]]:
    """One explain-analyze row per plan node, in node-id order."""
    nodes = {node.node_id: node for node in plan.walk()}
    scan_tables = {
        node_id: node.table
        for node_id, node in nodes.items()
        if isinstance(node, Scan) and node_id is not None
    }
    flash_by_table: dict[str, int] = {}
    pages_by_table: dict[str, tuple[int, int]] = {}
    for (table, _col), nbytes in host_trace.flash_read_bytes.items():
        flash_by_table[table] = flash_by_table.get(table, 0) + nbytes
    for (table, col), pages in host_trace.flash_pages_read.items():
        read, skipped = pages_by_table.get(table, (0, 0))
        pages_by_table[table] = (
            read + pages,
            skipped + host_trace.flash_pages_skipped.get((table, col), 0),
        )

    rows: list[dict[str, Any]] = []
    for node_id in sorted(predictions):
        pred = predictions[node_id]
        act = actuals.get(node_id, {})
        row: dict[str, Any] = {
            "node": node_id,
            "op": pred["op"],
            "plan": pred["node"],
            "pred_cols": pred["n_columns"],
            "rows_out": act.get("host_rows_out"),
            "self_ms": round(act.get("host_self_ms", 0.0), 3),
            "streamed": act.get("streamed", False),
            "offloaded": act.get("offloaded", False),
            "device_rows_out": act.get("device_rows_out"),
            "device_self_ms": round(act.get("device_self_ms", 0.0), 3),
        }
        if "fragment" in act:
            row["fragment"] = act["fragment"]
        decision = compiled.decision(nodes[node_id])
        row["offload"] = {
            "device": decision.offloadable,
            "reason": (
                None if decision.offloadable else decision.reason.value
            ),
        }
        table = scan_tables.get(node_id)
        if table is not None:
            row["flash_bytes"] = flash_by_table.get(table, 0)
            read, skipped = pages_by_table.get(table, (0, 0))
            row["pages_read"] = read
            row["pages_skipped"] = skipped
        # Misprediction: host and device executed the same plan, so
        # their row counts must agree wherever both ran the node.
        mismatch = (
            row["rows_out"] is not None
            and row["device_rows_out"] is not None
            and row["rows_out"] != row["device_rows_out"]
        )
        row["mispredicted"] = bool(mismatch)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Model decomposition + what-ifs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhatIf:
    """One projected knob change, replayed against the model."""

    name: str
    detail: str
    runtime_s: float
    speedup: float  # baseline / projected


def _what_ifs(
    host: HostConfig,
    aquoman: AquomanConfig,
    scaled_host: QueryTrace,
    scaled_aq: QueryTrace,
    baseline_s: float,
) -> list[WhatIf]:
    """Replays of the model, each under one changed knob."""
    aq2 = dataclasses.replace(
        aquoman, flash_read_bandwidth=aquoman.flash_read_bandwidth * 2
    )
    host2 = dataclasses.replace(host, hw_threads=host.hw_threads * 2)
    flash2 = SystemModel(host, aq2).time_query(scaled_aq)
    replays = (
        # Device streaming rides the doubled line rate until its
        # pipeline caps it (the model's own min); the host array is not
        # an AquomanConfig knob, so its scans' I/O term is halved here.
        (
            "2x_flash_channels",
            f"flash {aquoman.flash_read_bandwidth / GB:.1f} -> "
            f"{aq2.flash_read_bandwidth / GB:.1f} GB/s "
            "(device stream capped by its pipeline)",
            dataclasses.replace(flash2, io_s=flash2.io_s / 2),
        ),
        (
            "2x_morsel_workers",
            f"host threads {host.hw_threads} -> {host2.hw_threads} "
            f"(serial fraction {host.serial_fraction:.0%})",
            SystemModel(host2, aquoman).time_query(scaled_aq),
        ),
        (
            "device_off",
            "host engine only, no offload",
            SystemModel(host).time_query(scaled_host),
        ),
    )
    return [
        WhatIf(name, detail, t.runtime_s, baseline_s / t.runtime_s)
        for name, detail, t in replays
    ]


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class DoctorReport:
    """Everything ``python -m repro doctor`` knows about one query."""

    query: str
    scale_factor: float
    target_sf: float
    crit: CritPathAnalysis
    components: dict[str, float]
    bottleneck: str
    modeled_runtime_s: float
    what_ifs: list[WhatIf]
    explain: list[dict[str, Any]]
    suspend: list[dict[str, Any]]
    n_dropped_spans: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def mispredictions(self) -> int:
        return (
            sum(1 for r in self.explain if r["mispredicted"])
            + sum(1 for r in self.suspend if not r["ok"])
        )

    def format(self) -> str:
        lines = [
            f"== doctor report: {self.query} "
            f"(SF {self.scale_factor:g} -> {self.target_sf:g}) ==",
            "",
            f"bottleneck: {self.bottleneck} "
            f"(modeled runtime {self.modeled_runtime_s:.2f}s "
            f"at SF {self.target_sf:g})",
            "model components:",
        ]
        total = sum(self.components.values())
        for name, secs in sorted(
            self.components.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = secs / total if total else 0.0
            lines.append(f"  {name:<10} {secs:>10.3f}s  {share:>6.1%}")
        lines.append("")
        lines.append("what-if projections:")
        for w in self.what_ifs:
            lines.append(
                f"  {w.name:<18} {w.runtime_s:>10.2f}s  "
                f"{w.speedup:>5.2f}x  ({w.detail})"
            )
        lines.append("")
        lines.append("runtime critical path (this process, this SF):")
        lines.append(self.crit.format(top=8))
        lines.append("")
        lines.append("explain-analyze (predicted vs actual, per node):")
        lines.append(
            f"  {'node':>4} {'op':<10} {'cols':>4} {'rows_out':>10} "
            f"{'self':>9} {'exec':<12} {'flash':>10} {'flag':<4} offload"
        )
        for row in self.explain:
            execs = []
            if row["streamed"]:
                execs.append("morsel")
            elif row["rows_out"] is not None:
                execs.append("host")
            if row["offloaded"]:
                execs.append("device")
            flash = (
                f"{row['flash_bytes'] / 1e6:.1f}MB"
                if "flash_bytes" in row
                else ""
            )
            if row.get("pages_skipped"):
                flash += f" (-{row['pages_skipped']}pg)"
            rows_out = row["rows_out"]
            if rows_out is None:
                rows_out = row["device_rows_out"]
            offload = row["offload"]
            decision = (
                "DEVICE" if offload["device"]
                else f"host <- {offload['reason']}"
            )
            lines.append(
                f"  {row['node']:>4} {row['op']:<10} "
                f"{row['pred_cols'] if row['pred_cols'] is not None else '?':>4} "
                f"{rows_out if rows_out is not None else '-':>10} "
                f"{row['self_ms'] + row['device_self_ms']:>7.1f}ms "
                f"{'+'.join(execs) or '-':<12} {flash:>10} "
                f"{'MISS' if row['mispredicted'] else 'ok':<4} {decision}"
            )
            if "fragment" in row:
                lines.append("       fragment: " + " ".join(
                    f"{k}={v}" for k, v in row["fragment"].items()
                ))
        lines.append("")
        lines.append("suspend verdicts (AQ2xx) vs simulator:")
        for row in self.suspend:
            status = "ok" if row["ok"] else f"MISPREDICTED: {row['note']}"
            lines.append(
                f"  {row['reason']:<16} {row['predicted']:<28} "
                f"observed {row['observed']:<14} {status}"
            )
        lines.append("")
        lines.append(
            f"{self.mispredictions} misprediction(s) across "
            f"{len(self.explain)} plan nodes and "
            f"{len(self.suspend)} suspend reasons"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "scale_factor": self.scale_factor,
            "target_sf": self.target_sf,
            "bottleneck": self.bottleneck,
            "modeled_runtime_s": self.modeled_runtime_s,
            "components": dict(self.components),
            "what_ifs": [dataclasses.asdict(w) for w in self.what_ifs],
            "lane_utilization": self.crit.lane_utilization(),
            "attribution": dict(self.crit.attribution),
            "critical_path_ms": self.crit.path_ns / 1e6,
            "wall_ms": self.crit.wall_ns / 1e6,
            "explain": self.explain,
            "suspend": self.suspend,
            "mispredictions": self.mispredictions,
            "n_dropped_spans": self.n_dropped_spans,
            "meta": dict(self.meta),
        }


def build_report(
    *,
    query: str,
    plan: Plan,
    records: list[tuple[str, SpanRecord]],
    host_trace: QueryTrace,
    sim: SimulationResult,
    analysis: AnalysisReport,
    predictions: dict[int, dict],
    host: HostConfig,
    aquoman: AquomanConfig,
    target_sf: float,
    n_dropped_spans: int = 0,
    root_name: str = "doctor.query",
) -> DoctorReport:
    """Pure assembly: collected inputs -> report, deterministically.

    Separated from :func:`diagnose` so a fixed trace fixture replays to
    byte-identical output.
    """
    crit = analyze_records(records, root_name=root_name)

    scaled_host = scale_trace(
        host_trace, target_sf, group_domains=GROUP_DOMAINS
    )
    scaled_aq = scale_trace(
        sim.trace, target_sf, group_domains=GROUP_DOMAINS
    )
    # The bottleneck buckets are the model's own terms: ``flash_io`` is
    # the host-side scan I/O plus the device's flash-bound streaming
    # and whatever injected faults stalled its critical channel.
    model = SystemModel(host, aquoman)
    timing = model.time_query(scaled_aq)
    device = model.device_terms(scaled_aq)
    components = {
        "host_cpu": timing.cpu_s,
        "flash_io": timing.io_s + device["stream"] + device["fault_stall"],
        "swissknife": device["sorter"],
        "dma": device["dma"],
        "swap": timing.swap_s,
        "overhead": QUERY_OVERHEAD_S,
    }
    bottleneck = max(MODEL_COMPONENTS, key=lambda c: (components[c], c))
    baseline_s = timing.runtime_s
    what_ifs = _what_ifs(
        host, aquoman, scaled_host, scaled_aq, baseline_s
    )

    actuals = _node_actuals(records, _span_window(records, "doctor.host"))
    explain = _explain_rows(
        plan, predictions, actuals, host_trace, sim.compiled
    )
    suspend = suspend_scorecard(analysis, sim)

    return DoctorReport(
        query=query,
        scale_factor=host_trace.scale_factor,
        target_sf=target_sf,
        crit=crit,
        components=components,
        bottleneck=bottleneck,
        modeled_runtime_s=baseline_s,
        what_ifs=what_ifs,
        explain=explain,
        suspend=suspend,
        n_dropped_spans=n_dropped_spans,
        meta={
            "host": host.name,
            "aquoman": aquoman.name,
            "offloaded": sim.offloaded,
            "suspend_reasons": sorted(
                r.name for r in sim.suspend_reasons
            ),
        },
    )


def diagnose(
    catalog,
    plan: Plan,
    query: str,
    *,
    target_sf: float = 1000.0,
    dram_gb: float = 40.0,
    workers: int = 4,
    morsel_rows: int = MorselConfig.morsel_rows,
    backend: str = MorselConfig.worker_backend,
    host: HostConfig = HOST_S,
    tracer: Tracer | None = None,
) -> DoctorReport:
    """Collect one query's evidence and assemble the doctor report.

    Runs the static analyzer, then the morsel-parallel host engine and
    the AQUOMAN simulator on the *same* plan object (so the analyzer's
    node ids line up across all three) under one tracer — a fresh one
    unless the caller passes its own (to size its rings or export it).
    """
    config = DeviceConfig(
        dram_bytes=int(dram_gb * GB),
        scale_ratio=target_sf / catalog.scale_factor,
    )
    analysis = analyze_plan(plan, catalog, device=config)
    predictions = node_schemas(plan, analysis.checker)

    if tracer is None:
        tracer = Tracer()
    with tracer.span("doctor.query", query=query):
        with tracer.span("doctor.host"):
            engine = Engine(
                catalog,
                morsels=MorselConfig(
                    parallel=True,
                    morsel_rows=morsel_rows,
                    n_workers=workers,
                    worker_backend=backend,
                ),
                tracer=tracer,
            )
            engine.trace.query = query
            engine.trace.scale_factor = catalog.scale_factor
            engine.execute_relation(plan)
        with tracer.span("doctor.sim"):
            sim = AquomanSimulator(catalog, config, tracer=tracer).run(
                plan, query=query
            )

    aquoman = AquomanConfig("AQUOMAN", dram_bytes=int(dram_gb * GB))
    return build_report(
        query=query,
        plan=plan,
        records=list(tracer.records()),
        host_trace=engine.trace,
        sim=sim,
        analysis=analysis,
        predictions=predictions,
        host=host,
        aquoman=aquoman,
        target_sf=target_sf,
        n_dropped_spans=tracer.n_dropped,
    )


def report_json(report: DoctorReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)
