"""Seeded chaos campaigns: inject faults, demand bit-identical results.

A campaign runs each query twice per seed — once on the host morsel
engine, once through the AQUOMAN simulator — with a
:class:`~repro.faults.injector.FaultInjector` installed, and compares
both against fault-free references computed once per query.  The
invariant under test is the PR's contract: every *recoverable* fault
class (transient page errors, latency spikes, channel stalls, worker
crashes, device faults) recovers to bit-identical results; only an
exhausted retry budget may fail, and then it must fail loudly
(``verdict: unrecoverable``, exit code 1 — the CI self-check relies on
this).

This module drives the engine and simulator, so unlike the rest of
``repro.faults`` it sits *above* them in the layering — import it
explicitly as :mod:`repro.faults.chaos`.
"""

from __future__ import annotations

from typing import Callable

from repro import tpch
from repro.core.device import DeviceConfig
from repro.core.simulator import AquomanSimulator
from repro.engine.executor import Engine
from repro.engine.morsel import MorselConfig
from repro.faults.errors import UnrecoverableFault
from repro.faults.injector import FaultInjector, set_fault_injector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs.context import clear_degraded, get_degraded
from repro.obs.qlog import get_query_log, set_query_log
from repro.perf.trace import QueryTrace

# A mixed-rate default that exercises every fault class at once while
# staying comfortably inside the retry budget for sf-0.01 page counts.
DEFAULT_CHAOS = FaultConfig(
    page_error_rate=0.02,
    latency_spike_rate=0.05,
    worker_crash_rate=0.2,
    device_fault_rate=0.3,
    channel_stall_rate=0.25,
)


def _quiet(message: str) -> None:
    pass


def run_campaign(
    queries: list[int],
    seeds: list[int],
    config: FaultConfig = DEFAULT_CHAOS,
    sf: float = 0.01,
    target_sf: float = 1000.0,
    workers: int = 4,
    morsel_rows: int = 8192,
    backend: str = MorselConfig.worker_backend,
    log: Callable[[str], None] = _quiet,
    tracer=None,
) -> dict:
    """Run a seeds × queries chaos matrix; return the JSON report.

    The report's top-level ``verdict`` is ``"pass"`` only when every
    (query, seed) run recovered to bit-identical host *and* device
    results; any mismatch or unrecoverable fault makes it ``"fail"``.
    Fault placement is a pure function of ``(seed, site)``, so the
    report is identical across worker counts *and* backends.

    With ``tracer`` set (and a query log installed), every injected run
    emits a wide event attributing its spans and faults to a query id;
    the fault-free reference runs stay untraced so the log holds only
    the campaign's injected runs.
    """
    db = tpch.generate(sf)
    morsels = MorselConfig(
        parallel=True, morsel_rows=morsel_rows, n_workers=workers,
        worker_backend=backend,
    )
    device_config = DeviceConfig(scale_ratio=target_sf / sf)

    runs: list[dict] = []
    for number in queries:
        plan = tpch.query(number)
        name = f"q{number:02d}"

        # Fault-free references, once per query, injector OFF — and the
        # ambient query log parked, so the log holds only injected runs.
        set_fault_injector(None)
        qlog = get_query_log()
        set_query_log(None)
        try:
            ref_host = Engine(db, morsels=morsels).execute(plan)
            ref_device = AquomanSimulator(db, device_config).run(
                plan, query=name
            ).table
        finally:
            set_query_log(qlog)

        for seed in seeds:
            runs.append(_run_one(
                db, plan, name, seed, config, morsels, device_config,
                ref_host, ref_device, tracer=tracer,
            ))
            log(f"{name} seed={seed}: {runs[-1]['verdict']} "
                f"({runs[-1]['faults']['injected']} faults)")

    ok = all(r["verdict"] == "pass" for r in runs)
    totals: dict[str, int] = {}
    for r in runs:
        for key, value in r["faults"].items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return {
        "config": config.to_dict(),
        "sf": sf,
        "target_sf": target_sf,
        "workers": workers,
        "morsel_rows": morsel_rows,
        "backend": backend,
        "seeds": list(seeds),
        "queries": list(queries),
        "runs": runs,
        "totals": totals,
        "verdict": "pass" if ok else "fail",
    }


def _run_one(
    db, plan, name: str, seed: int, config: FaultConfig,
    morsels: MorselConfig, device_config: DeviceConfig,
    ref_host, ref_device, tracer=None,
) -> dict:
    """One (query, seed) chaos run: host + device under injection."""
    injector = FaultInjector(FaultPlan(seed, config))
    set_fault_injector(injector)
    clear_degraded()
    record: dict = {"query": name, "seed": seed}
    try:
        host_trace = QueryTrace(query=name)
        host = Engine(
            db, host_trace, morsels=morsels, tracer=tracer,
        ).execute(plan)
        result = AquomanSimulator(
            db, device_config, tracer=tracer,
        ).run(plan, query=name)
        host_match = ref_host.equals(host.renamed(ref_host.name))
        device_match = ref_device.equals(
            result.table.renamed(ref_device.name)
        )
        record.update(
            verdict="pass" if host_match and device_match else "mismatch",
            host_match=host_match,
            device_match=device_match,
            suspend_reason=result.trace.suspend_reason,
            fault_stall_s=round(
                host_trace.fault_stall_s
                + result.trace.fault_stall_s
                + result.trace.aquoman_fault_stall_s, 9
            ),
        )
    except UnrecoverableFault as fault:
        record.update(verdict="unrecoverable", error=str(fault))
    finally:
        record["faults"] = injector.summary()
        degraded = get_degraded()
        if degraded:
            record["degraded"] = degraded
        set_fault_injector(None)
    return record
