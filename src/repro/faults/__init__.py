"""Deterministic fault injection and graceful degradation.

The paper's suspend mechanism (Sec. V) only fires on *planned*
conditions — DRAM overflow, oversized string heaps, group spills.  A
real in-SSD accelerator also sees runtime faults: flash pages that fail
a read, channels that stall, the device dying mid-Table-Task, worker
threads crashing.  This package injects exactly those faults,
deterministically, and the execution layers degrade gracefully:

==================  =========================================  ========
fault class         recovery                                   result
==================  =========================================  ========
transient page      bounded retry + exponential backoff,       exact
read error          charged to the channel's timing
latency spike /     stall charged to the channel's timing      exact
channel stall       (no functional effect)
morsel-worker       morsel-level re-execution                  exact
crash
mid-task device     ``SuspendReason.DEVICE_FAULT`` — the       exact
fault               whole subtree re-runs on the host
retry budget        :class:`UnrecoverableFault` propagates;    error
exhausted           the degraded flag is set
==================  =========================================  ========

"Exact" is the invariant ``tests/test_determinism.py`` enforces: under
every chaos seed it runs, every recovery path returns the host's
result bit for bit, on the 22 TPC-H queries and 24 ad-hoc statements.

Layout: :mod:`~repro.faults.plan` decides *where* faults strike (pure
function of seed and site), and :mod:`~repro.faults.injector` is the
ambient runtime consulted by the flash/engine layers.
"""

from repro.faults.errors import (
    DeviceFault,
    FaultError,
    TransientPageError,
    UnrecoverableFault,
    WorkerCrash,
)
from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    NullFaultInjector,
    get_fault_injector,
    set_fault_injector,
)
from repro.faults.plan import FaultConfig, FaultPlan, PageOutcome

__all__ = [
    "NULL_INJECTOR",
    "DeviceFault",
    "FaultConfig",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "NullFaultInjector",
    "PageOutcome",
    "TransientPageError",
    "UnrecoverableFault",
    "WorkerCrash",
    "get_fault_injector",
    "set_fault_injector",
]
