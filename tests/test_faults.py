"""Fault injection and graceful degradation.

Four contracts:

- **determinism** — fault decisions are pure functions of (seed, site),
  so the same seed produces the same fault sites, counters and event
  log regardless of worker count or thread scheduling;
- **bit-identical recovery** — each recoverable fault class (transient
  page errors, latency spikes, channel stalls, worker crashes, device
  faults) recovers to exactly the fault-free result, host and device;
- **bounded retries** — an exhausted retry budget raises
  :class:`UnrecoverableFault` instead of looping or silently passing;
- **observability** — recovery sets the process-wide degraded flag
  and charges stall seconds the timing model can see.
"""

import pytest

from repro import tpch
from repro.core.device import DeviceConfig
from repro.core.simulator import AquomanSimulator
from repro.engine.executor import Engine
from repro.engine.morsel import MorselConfig
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultPlan,
    UnrecoverableFault,
    WorkerCrash,
    get_fault_injector,
    set_fault_injector,
)
from repro.flash.channels import ChannelMeter
from repro.flash.controller import (
    CommandKind,
    FlashCommand,
    FlashController,
    FlashReadError,
)
from repro.obs.context import clear_degraded, get_degraded, set_degraded
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _no_ambient_injector():
    """Every test starts and ends fault-free and healthy."""
    set_fault_injector(None)
    clear_degraded()
    yield
    set_fault_injector(None)
    clear_degraded()


def _injector(seed=7, metrics=None, **rates) -> FaultInjector:
    return FaultInjector(
        FaultPlan(seed, FaultConfig(**rates)),
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )


# One worker = inline spans: recovery on the serial backend.  The same
# faults through the worker pool are tests/test_procpool.py's.
MORSELS = MorselConfig(parallel=True, morsel_rows=8192, n_workers=1)


# ---------------------------------------------------------------------------
# Plan determinism
# ---------------------------------------------------------------------------


def test_same_seed_same_page_outcomes():
    import numpy as np

    pages = np.arange(5000, dtype=np.int64)
    config = FaultConfig(page_error_rate=0.05, latency_spike_rate=0.1)
    a = FaultPlan(3, config).page_outcomes(pages)
    b = FaultPlan(3, config).page_outcomes(pages)
    assert (a.retries == b.retries).all()
    assert (a.spikes == b.spikes).all()
    assert a.retries.sum() > 0 and a.spikes.sum() > 0


def test_different_seeds_differ():
    import numpy as np

    pages = np.arange(5000, dtype=np.int64)
    config = FaultConfig(page_error_rate=0.05)
    a = FaultPlan(1, config).page_outcomes(pages)
    b = FaultPlan(2, config).page_outcomes(pages)
    assert (a.retries != b.retries).any()


def test_page_decisions_are_order_independent():
    import numpy as np

    pages = np.arange(1000, dtype=np.int64)
    config = FaultConfig(page_error_rate=0.05, latency_spike_rate=0.1)
    plan = FaultPlan(9, config)
    forward = plan.page_outcomes(pages)
    backward = plan.page_outcomes(pages[::-1])
    assert (forward.retries == backward.retries[::-1]).all()
    assert (forward.spikes == backward.spikes[::-1]).all()


def test_site_hits_are_named_not_sequenced():
    config = FaultConfig(worker_crash_rate=0.5)
    plan = FaultPlan(11, config)
    sites = [f"morsel/lineitem/{k}" for k in range(64)]
    first = [plan.worker_crashes(s, 0) for s in sites]
    shuffled = [plan.worker_crashes(s, 0) for s in reversed(sites)]
    assert first == shuffled[::-1]
    assert any(first) and not all(first)


def test_rate_extremes():
    import numpy as np

    pages = np.arange(100, dtype=np.int64)
    never = FaultPlan(5, FaultConfig(page_error_rate=0.0))
    always = FaultPlan(5, FaultConfig(page_error_rate=1.0,
                                      retry_budget=2))
    assert never.page_outcomes(pages).retries.sum() == 0
    out = always.page_outcomes(pages)
    assert out.unrecoverable.all()  # rate 1.0 never recovers


def test_backoff_is_exponential_geometric_sum():
    import numpy as np

    plan = FaultPlan(0, FaultConfig(backoff_base_us=100.0))
    backoff = plan.backoff_seconds(np.array([0, 1, 2, 3]))
    base = 100e-6
    assert backoff == pytest.approx([0.0, base, 3 * base, 7 * base])


# ---------------------------------------------------------------------------
# Injector behaviour
# ---------------------------------------------------------------------------


def test_injector_counters_and_events_deterministic():
    import numpy as np

    pages = np.arange(2000, dtype=np.int64)
    runs = []
    for _ in range(2):
        inj = _injector(page_error_rate=0.03, latency_spike_rate=0.05)
        stall = inj.charge_page_reads(pages)
        runs.append((inj.summary(), inj.sorted_events(), stall))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert (runs[0][2] == runs[1][2]).all()
    assert runs[0][0]["injected"] > 0


def test_unrecoverable_page_raises_and_degrades():
    import numpy as np

    inj = _injector(page_error_rate=1.0, retry_budget=0)
    with pytest.raises(UnrecoverableFault):
        inj.charge_page_reads(np.arange(10, dtype=np.int64))
    assert inj.counts["unrecoverable"] == 1
    assert get_degraded()["reason"] == "unrecoverable flash page error"


@pytest.mark.parametrize("path", ["serial", "process", "device"])
def test_unrecoverable_fault_fails_every_path(small_db, path):
    """End to end, an exhausted retry budget is an error on every
    path, never a silently wrong or silently partial result."""
    plan = tpch.query(6)
    set_fault_injector(_injector(page_error_rate=1.0, retry_budget=0))
    with pytest.raises(UnrecoverableFault):
        if path == "device":
            AquomanSimulator(
                small_db, DeviceConfig(scale_ratio=1000.0 / 0.01)
            ).run(plan, query="q06")
        else:
            Engine(small_db, morsels=MorselConfig(
                parallel=True, morsel_rows=8192,
                n_workers=2 if path == "process" else 1,
                worker_backend=path,
            )).execute_relation(plan)
    assert get_degraded()["reason"] == "unrecoverable flash page error"


def test_worker_crash_site_raises_typed():
    inj = _injector(worker_crash_rate=1.0)
    with pytest.raises(WorkerCrash) as err:
        inj.check_worker("morsel/lineitem/0-8192", attempt=0)
    assert err.value.site == "morsel/lineitem/0-8192"


def test_null_injector_is_free():
    inj = get_fault_injector()
    assert not inj.enabled
    assert inj.charge_page_reads([1, 2, 3]) is None
    inj.check_worker("anything")  # never raises
    inj.check_device("anything")


# ---------------------------------------------------------------------------
# Flash layer
# ---------------------------------------------------------------------------


def test_flash_read_error_is_typed_and_a_valueerror():
    ctrl = FlashController()
    bad = ctrl.config.total_pages + 5
    with pytest.raises(FlashReadError) as err:
        ctrl.submit(FlashCommand(CommandKind.READ, bad))
    assert err.value.page_id == bad
    assert err.value.channel == bad % ctrl.config.n_channels
    assert isinstance(err.value, ValueError)


def test_controller_charges_injected_stall():
    ctrl = FlashController()
    baseline = ctrl.submit(FlashCommand(CommandKind.READ, 0))
    set_fault_injector(_injector(latency_spike_rate=1.0))
    ctrl2 = FlashController()
    spiked = ctrl2.submit(FlashCommand(CommandKind.READ, 0))
    assert spiked > baseline


def test_channel_meter_stall_moves_critical_path():
    import numpy as np

    meter = ChannelMeter()
    meter.record_pages(np.arange(64, dtype=np.int64))  # balanced
    base = meter.read_seconds()
    assert meter.stall_marginal_seconds() == 0.0
    meter.record_stall(3, 0.5)
    assert meter.read_seconds() == pytest.approx(base + 0.5)
    assert meter.stall_marginal_seconds() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Bit-identical recovery, per fault class
# ---------------------------------------------------------------------------


def _host_result(db, plan):
    return Engine(db, morsels=MORSELS).execute(plan)


@pytest.mark.parametrize(
    "rates",
    [
        {"page_error_rate": 0.05},
        {"latency_spike_rate": 0.2},
        {"channel_stall_rate": 0.5},
        {"worker_crash_rate": 0.5},
    ],
    ids=["page-error", "latency-spike", "channel-stall", "worker-crash"],
)
def test_host_recovery_bit_identical(small_db, rates):
    plan = tpch.query(6)
    reference = _host_result(small_db, plan)
    set_fault_injector(_injector(seed=3, **rates))
    faulted = _host_result(small_db, plan)
    assert reference.equals(faulted.renamed(reference.name))


def test_device_fault_falls_back_bit_identical(tiny_db):
    from repro.core.compiler import SuspendReason

    plan = tpch.query(6)
    config = DeviceConfig(scale_ratio=1000.0 / 0.001)
    reference = AquomanSimulator(tiny_db, config).run(plan, query="q06")
    inj = _injector(device_fault_rate=1.0)
    set_fault_injector(inj)
    faulted = AquomanSimulator(tiny_db, config).run(plan, query="q06")
    assert reference.table.equals(
        faulted.table.renamed(reference.table.name)
    )
    assert SuspendReason.DEVICE_FAULT in faulted.suspend_reasons
    assert "device fault" in faulted.trace.suspend_reason
    assert inj.counts["host_fallbacks"] >= 1
    assert get_degraded()["reason"] == "host fallback after device fault"


def test_device_fault_rolls_back_the_work_done(tiny_db, monkeypatch):
    """A device fault strikes once the subtree's first Table Task has
    run, so the fallback has real device work to undo: Q6's one
    subtree streamed its flash pages before the fault, and after the
    rollback every device meter reads as if the device never ran."""
    from repro.core.device import AquomanDevice, DeviceMeters

    plan = tpch.query(6)
    config = DeviceConfig(scale_ratio=1000.0 / 0.001)
    streamed = []
    real = AquomanDevice.run_table_task

    def spy(device, *args):
        out = real(device, *args)
        streamed.append(device.meters.flash_bytes)
        return out

    monkeypatch.setattr(AquomanDevice, "run_table_task", spy)
    set_fault_injector(_injector(device_fault_rate=1.0))
    faulted = AquomanSimulator(tiny_db, config).run(plan, query="q06")
    assert len(streamed) == 1 and streamed[0] > 0
    assert faulted.device.meters == DeviceMeters()
    assert faulted.trace.aquoman_flash_bytes == 0
    assert faulted.tasks == []
    assert not faulted.offloaded


def test_worker_crash_budget_exhaustion_raises(small_db):
    plan = tpch.query(6)
    set_fault_injector(
        _injector(worker_crash_rate=1.0)  # default budget 3, always hit
    )
    with pytest.raises(UnrecoverableFault):
        _host_result(small_db, plan)


def test_host_stall_charged_to_timing(small_db):
    """Span page ids -> flash channels -> the slowest channel's stall."""
    from repro.perf.model import HOST_L, SystemModel
    from repro.perf.trace import QueryTrace

    inj = _injector(seed=3, latency_spike_rate=0.2)
    set_fault_injector(inj)
    trace = QueryTrace()
    Engine(small_db, trace, morsels=MORSELS).execute_relation(tpch.query(6))
    # Spikes spread over the stripe's 8 channels; the query pays for the
    # slowest one, not for their sum.
    assert inj.stall_s / 8 <= trace.fault_stall_s < inj.stall_s
    clean = QueryTrace()
    set_fault_injector(None)
    Engine(small_db, clean, morsels=MORSELS).execute_relation(tpch.query(6))
    assert clean.fault_stall_s == 0.0
    assert clean.flash_pages_read == trace.flash_pages_read
    model = SystemModel(HOST_L)
    assert model.host_io_seconds(trace) - model.host_io_seconds(clean) == (
        pytest.approx(trace.fault_stall_s)
    )


def test_device_stall_charged_to_timing(tiny_db):
    plan = tpch.query(6)
    config = DeviceConfig(scale_ratio=1000.0 / 0.001)
    set_fault_injector(_injector(latency_spike_rate=0.5))
    result = AquomanSimulator(tiny_db, config).run(plan, query="q06")
    assert result.trace.aquoman_fault_stall_s > 0.0

    from repro.perf.model import AQUOMAN_40GB, HOST_L, SystemModel

    model = SystemModel(HOST_L, AQUOMAN_40GB)
    stalled = model.device_seconds(result.trace)
    result.trace.aquoman_fault_stall_s = 0.0
    assert stalled > model.device_seconds(result.trace)


def test_fault_summary_same_at_any_worker_count(small_db):
    """Faults land on the same sites with 4 pool workers and with 1,
    every device fault falls back once, and both paths stay exact."""
    plan = tpch.query(6)
    device = DeviceConfig(scale_ratio=1000.0 / 0.01)
    ref_host = Engine(small_db).execute(plan)
    ref_device = AquomanSimulator(small_db, device).run(plan).table
    for seed in (0, 1):
        summaries = []
        for workers in (4, 1):
            inj = _injector(
                seed, page_error_rate=0.02, worker_crash_rate=0.2,
                device_fault_rate=1.0,
            )
            set_fault_injector(inj)
            host = Engine(small_db, morsels=MorselConfig(
                parallel=True, morsel_rows=8192, n_workers=workers,
            )).execute(plan)
            device_table = AquomanSimulator(small_db, device).run(
                plan
            ).table
            set_fault_injector(None)
            assert ref_host.equals(host.renamed(ref_host.name))
            assert ref_device.equals(device_table.renamed(ref_device.name))
            summaries.append(inj.summary())
        assert summaries[0] == summaries[1], seed
        assert summaries[0]["host_fallbacks"] == 1, seed


# ---------------------------------------------------------------------------
# The degraded flag
# ---------------------------------------------------------------------------


def test_degraded_flag_roundtrip():
    assert get_degraded() is None
    set_degraded("host fallback after device fault",
                 site="subtree0", seed=3)
    doc = get_degraded()
    assert doc["reason"] == "host fallback after device fault"
    assert doc["site"] == "subtree0"
    assert doc["seed"] == 3
    clear_degraded()
    assert get_degraded() is None


# ---------------------------------------------------------------------------
# A window faults as its spans did
# ---------------------------------------------------------------------------

# The seeds and rates the host-path tests above run, with their budgets.
WINDOW_FAULTS = [
    (3, {"page_error_rate": 0.05}),
    (3, {"latency_spike_rate": 0.2}),
    (3, {"channel_stall_rate": 0.5}),
    (3, {"worker_crash_rate": 0.5}),
    (7, {"page_error_rate": 1.0, "retry_budget": 0}),
    (7, {"worker_crash_rate": 1.0}),
    (0, {"page_error_rate": 0.02, "worker_crash_rate": 0.2}),
    (1, {"page_error_rate": 0.02, "worker_crash_rate": 0.2}),
]


def _faulted_q6(db, backend, seed, rates, per_span):
    """Q6 streamed under one injector: ``(result or None, the raised
    site or None, injector, trace)``.  ``per_span`` runs every span by
    itself (``test_window_accounting.reference_spans``) in place of the
    windows, and the executor merges and records as usual."""
    from test_window_accounting import as_partial, reference_spans, windows_of

    from repro.engine.morsel import MorselExecutor
    from repro.perf.trace import QueryTrace

    def spans_alone(executor, spans, backend):
        windows = windows_of(spans, backend, executor.config.n_workers)
        return [
            as_partial(span, executor.fragment.kind == "chain")
            for span in reference_spans(
                executor.engine.catalog, executor.fragment, windows
            )
        ]

    injector = _injector(seed, **rates)
    set_fault_injector(injector)
    trace = QueryTrace()
    engine = Engine(db, trace, morsels=MorselConfig(
        parallel=True, morsel_rows=8192,
        n_workers=2 if backend == "process" else 1, worker_backend=backend,
    ))
    try:
        with pytest.MonkeyPatch.context() as patch:
            if per_span:
                patch.setattr(MorselExecutor, "_execute", spans_alone)
            return engine.execute(tpch.query(6)), None, injector, trace
    except UnrecoverableFault as fault:
        return None, fault.site, injector, trace
    finally:
        set_fault_injector(None)
        clear_degraded()


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize(
    "seed, rates", WINDOW_FAULTS,
    ids=[f"{seed}-" + "-".join(rates) for seed, rates in WINDOW_FAULTS],
)
def test_window_faults_like_its_spans(small_db, backend, seed, rates):
    """A window checks and retries each span's site before it works and
    charges each span's pages in span order: the same sites retried the
    same number of times, the same unrecoverable site, the same stall
    seconds as spans run one by one."""
    out, site, injector, trace = _faulted_q6(
        small_db, backend, seed, rates, per_span=False
    )
    want, want_site, spans, span_trace = _faulted_q6(
        small_db, "serial", seed, rates, per_span=True
    )
    assert site == want_site
    if site is not None and backend == "process":
        return  # batches after the failing one ran on the other worker
    assert injector.summary() == spans.summary()
    assert injector.sorted_events() == spans.sorted_events()
    assert trace.fault_stall_s == span_trace.fault_stall_s
    if site is None:
        assert out.equals(want.renamed(out.name))
