"""End-to-end TPC-H evaluation: traces for every query on every system.

This is the entry point behind the paper's Fig. 16 (a)/(b)/(c): run all
22 queries on the pure-host engine and on the AQUOMAN simulator (40 GB
and 16 GB device DRAM), scale the traces to SF-1000, and time them on
the S / L / S-AQUOMAN / L-AQUOMAN / S-AQUOMAN16 system models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.device import DeviceConfig
from repro.core.simulator import AquomanSimulator, SimulationResult
from repro.engine.executor import Engine
from repro.perf.report import EvaluationReport, run_evaluation
from repro.perf.trace import QueryTrace
from repro.tpch import ALL_QUERIES, query
from repro.util.units import GB

# Group-count ceilings for aggregations over enumerated domains the
# size heuristic cannot infer at tiny scale factors (spec Sec. 3.3:
# these cardinalities are SF-independent).
GROUP_DOMAINS: dict[str, int] = {
    "q01": 6,      # returnflag x linestatus
    "q04": 5,      # order priorities
    "q05": 25,     # nations
    "q07": 4,      # 2 nation pairs x 2 years
    "q08": 2,      # 2 order years
    "q12": 2,      # 2 ship modes
    "q13": 64,     # order-count histogram buckets
    "q22": 7,      # country codes
}


@dataclass
class TpchEvaluation:
    """Traces and simulation results for one dataset."""

    host_traces: dict[str, QueryTrace] = field(default_factory=dict)
    aquoman_traces: dict[str, QueryTrace] = field(default_factory=dict)
    aquoman16_traces: dict[str, QueryTrace] = field(default_factory=dict)
    simulations: dict[str, SimulationResult] = field(default_factory=dict)

    def report(self, target_sf: float = 1000.0) -> EvaluationReport:
        return run_evaluation(
            self.host_traces,
            self.aquoman_traces,
            self.aquoman16_traces,
            target_sf=target_sf,
            group_domains=GROUP_DOMAINS,
        )


def collect_traces(
    catalog,
    queries=ALL_QUERIES,
    target_sf: float = 1000.0,
    tracer=None,
) -> TpchEvaluation:
    """Run every query three ways and collect the traces.

    The device configs carry ``scale_ratio = target_sf / data SF`` so
    DRAM-capacity and heap-cache decisions reflect the simulated scale,
    exactly like the paper's trace-based simulator (Sec. VII).

    ``tracer`` (a :class:`repro.obs.Tracer`) threads runtime span
    recording through every engine and simulator run, one
    ``evaluate.<query>`` span per query.
    """
    from repro.obs import NULL_TRACER

    tracer = tracer if tracer is not None else NULL_TRACER
    ratio = target_sf / catalog.scale_factor
    cfg40 = DeviceConfig(dram_bytes=40 * GB, scale_ratio=ratio)
    cfg16 = DeviceConfig(dram_bytes=16 * GB, scale_ratio=ratio)

    out = TpchEvaluation()
    for n in queries:
        name = f"q{n:02d}"

        with tracer.span(f"evaluate.{name}"):
            engine = Engine(catalog, tracer=tracer)
            engine.trace.query = name
            engine.trace.scale_factor = catalog.scale_factor
            engine.execute_relation(query(n))
            out.host_traces[name] = engine.trace

            sim40 = AquomanSimulator(catalog, cfg40, tracer=tracer).run(
                query(n), query=name
            )
            out.aquoman_traces[name] = sim40.trace
            out.simulations[name] = sim40

            sim16 = AquomanSimulator(catalog, cfg16, tracer=tracer).run(
                query(n), query=name
            )
            out.aquoman16_traces[name] = sim16.trace
    return out
