"""The runtime fault injector: plan decisions + recovery bookkeeping.

The execution layers never talk to a :class:`~repro.faults.plan.FaultPlan`
directly; they consult the ambient :class:`FaultInjector` (default: the
free no-op :data:`NULL_INJECTOR`, so fault-free runs pay one attribute
check).  The injector

- answers "does this site fault?" (raising the typed exceptions from
  :mod:`repro.faults.errors`),
- converts page-batch outcomes into per-channel stall seconds the
  timing model charges (retry backoff + latency spikes),
- keeps counters and a bounded event log (the determinism tests
  compare it sorted across backends, raw across hash seeds),
- mirrors everything into ``faults.*`` metrics and ambient-tracer
  instants, and sets the process-wide degraded flag whenever a
  recovery path had to run.

Only the thread that installed an injector touches it: pool workers
are forked processes with their own per-batch injector, merged by
:meth:`FaultInjector.absorb` on the caller's thread, so nothing locks.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import (
    DeviceFault,
    TransientPageError,
    UnrecoverableFault,
    WorkerCrash,
)
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import METRICS, get_tracer
from repro.obs.context import set_degraded

# Default channel count mirrors FlashConfig.n_channels (the flash
# package depends on us, so the constant is repeated, not imported).
DEFAULT_N_CHANNELS = 8
_EVENT_LOG_CAP = 100_000

# Each kind of fault event, counted as ``faults.<name>``.
COUNTERS = (
    "page_errors",  # flash pages that hit a transient read error
    "page_retries",  # page read retries performed
    "latency_spikes",  # page reads delayed by an injected spike
    "channel_stalls",  # flash channels stalled by injection
    "worker_crashes",  # morsel-worker exceptions injected
    "morsel_retries",  # morsels re-executed after a worker crash
    "device_faults",  # mid-task device faults injected
    "host_fallbacks",  # subtrees re-executed on the host
    "unrecoverable",  # faults that exhausted their retry budget
)


class NullFaultInjector:
    """No-faults default; every check is a cheap no-op."""

    enabled = False

    def charge_page_reads(self, page_ids, n_channels=DEFAULT_N_CHANNELS):
        return None

    def channel_stall_seconds(self, n_channels=DEFAULT_N_CHANNELS):
        return None

    def check_worker(self, site: str, attempt: int = 0) -> None:
        pass

    def check_device(self, site: str) -> None:
        pass

    def record_worker_retry(self, site: str, attempt: int) -> None:
        pass

    def record_fallback(self, site: str, reason: str) -> None:
        pass


NULL_INJECTOR = NullFaultInjector()


class FaultInjector:
    """Consults a seeded plan at every injection point, observably."""

    enabled = True

    def __init__(self, plan: FaultPlan, metrics=METRICS):
        self.plan = plan
        self.metrics = metrics
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.backoff_s = 0.0
        self.stall_s = 0.0
        # (kind, site-or-page, detail) tuples; compared *sorted* by the
        # determinism tests because pool workers' deltas are absorbed
        # in completion order.
        self.events: list[tuple[str, str, int]] = []

    @property
    def config(self) -> FaultConfig:
        return self.plan.config

    # -- bookkeeping --------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if n:
            self.counts[name] += n
            self.metrics.counter(f"faults.{name}").inc(n)

    def _event(self, kind: str, site: str, detail: int = 0) -> None:
        if len(self.events) < _EVENT_LOG_CAP:
            self.events.append((kind, site, detail))

    def sorted_events(self) -> list[tuple[str, str, int]]:
        return sorted(self.events)

    def summary(self) -> dict:
        """Counters + charged seconds, for reports and tests."""
        out: dict = dict(self.counts)
        out["backoff_s"] = round(self.backoff_s, 9)
        out["stall_s"] = round(self.stall_s, 9)
        out["injected"] = (
            out["page_errors"] + out["latency_spikes"]
            + out["channel_stalls"] + out["worker_crashes"]
            + out["device_faults"]
        )
        return out

    def absorb(self, delta: dict) -> None:
        """Merge a process worker's repatriated fault bookkeeping.

        ``delta`` is the shape :mod:`repro.engine.procpool` ships:
        nonzero counter values, the event tuples, and the charged
        seconds from the worker's per-batch injector.  Counters go
        through :meth:`_count` so the ``faults.*`` metrics mirror stays
        consistent with in-process injection.
        """
        for name, n in delta.get("counts", {}).items():
            self._count(name, n)
        backoff = float(delta.get("backoff_s", 0.0))
        stall = float(delta.get("stall_s", 0.0))
        self.backoff_s += backoff
        self.stall_s += stall
        for event in delta.get("events", ()):
            if len(self.events) < _EVENT_LOG_CAP:
                self.events.append(tuple(event))
        if backoff:
            self.metrics.gauge("faults.backoff_seconds").add(backoff)

    # -- page-granular faults ------------------------------------------------

    def charge_page_reads(
        self, page_ids, n_channels: int = DEFAULT_N_CHANNELS
    ) -> np.ndarray | None:
        """Fault a batch of page reads; return per-channel stall seconds.

        Transient errors retry with exponential backoff and latency
        spikes stall, both charged to the page's flash channel so the
        timing model sees the slowdown on the critical path.  A page
        still failing after the retry budget flips the degraded flag
        and raises :class:`UnrecoverableFault`.  Returns None when the
        batch was fault-free.
        """
        cfg = self.config
        if not (cfg.page_error_rate or cfg.latency_spike_rate):
            return None
        pages = np.asarray(page_ids, dtype=np.int64)
        if len(pages) == 0:
            return None
        out = self.plan.page_outcomes(pages)
        if out.unrecoverable.any():
            page = int(pages[int(np.argmax(out.unrecoverable))])
            channel = page % n_channels
            self._count("page_errors", int((out.retries > 0).sum()))
            self._count("page_retries", int(out.retries.sum()))
            self._count("unrecoverable")
            self._event("page-unrecoverable", f"page{page}", page)
            set_degraded(
                "unrecoverable flash page error", page_id=page,
                channel=channel, seed=self.plan.seed,
            )
            raise UnrecoverableFault(
                f"page {page} (channel {channel}) still failing after "
                f"{cfg.retry_budget} retries",
                site=f"page{page}",
            ) from TransientPageError(page, channel, cfg.retry_budget)

        n_errors = int((out.retries > 0).sum())
        n_spikes = int(out.spikes.sum())
        if not n_errors and not n_spikes:
            return None

        per_page = self.plan.backoff_seconds(out.retries)
        per_page = per_page + out.spikes * (cfg.latency_spike_us * 1e-6)
        stall = np.bincount(
            pages % n_channels, weights=per_page, minlength=n_channels
        )
        self._count("page_errors", n_errors)
        self._count("page_retries", int(out.retries.sum()))
        self._count("latency_spikes", n_spikes)
        backoff = float(self.plan.backoff_seconds(out.retries).sum())
        self.backoff_s += backoff
        self.stall_s += float(per_page.sum())
        self.metrics.gauge("faults.backoff_seconds").add(backoff)
        for page in pages[out.retries > 0]:
            self._event("page-error", f"page{int(page)}", int(page))
        get_tracer().instant(
            "fault.page_errors", lane="faults",
            errors=n_errors, spikes=n_spikes,
            retries=int(out.retries.sum()),
        )
        return stall

    def channel_stall_seconds(
        self, n_channels: int = DEFAULT_N_CHANNELS
    ) -> np.ndarray | None:
        """Injected whole-channel stalls (counted once per injector)."""
        if self.config.channel_stall_rate <= 0.0:
            return None
        stalls = self.plan.channel_stall_seconds(n_channels)
        hit = int((stalls > 0).sum())
        if not hit:
            return None
        if "channel-stall" not in {k for k, _, _ in self.events}:
            self._count("channel_stalls", hit)
            for channel in np.flatnonzero(stalls):
                self._event("channel-stall", "channel-stall", int(channel))
        return stalls

    # -- site-granular faults -----------------------------------------------

    def check_worker(self, site: str, attempt: int = 0) -> None:
        """Raise :class:`WorkerCrash` when this morsel attempt faults."""
        if self.plan.worker_crashes(site, attempt):
            self._count("worker_crashes")
            self._event("worker-crash", site, attempt)
            get_tracer().instant(
                "fault.worker_crash", lane="faults", site=site,
                attempt=attempt,
            )
            raise WorkerCrash(site, attempt)

    def record_worker_retry(self, site: str, attempt: int) -> None:
        self._count("morsel_retries")
        self._event("morsel-retry", site, attempt)

    def check_device(self, site: str) -> None:
        """Raise :class:`DeviceFault` when this subtree faults."""
        if self.plan.device_faults(site):
            self._count("device_faults")
            self._event("device-fault", site, 0)
            get_tracer().instant(
                "fault.device_fault", lane="faults", site=site
            )
            raise DeviceFault(site)

    def record_fallback(self, site: str, reason: str) -> None:
        """A subtree re-ran on the host: degraded but correct."""
        self._count("host_fallbacks")
        self._event("host-fallback", site, 0)
        set_degraded(
            "host fallback after device fault", site=site, cause=reason,
            seed=self.plan.seed,
        )

    def record_unrecoverable(self, site: str) -> None:
        self._count("unrecoverable")
        self._event("unrecoverable", site, 0)
        set_degraded(
            "retry budget exhausted", site=site, seed=self.plan.seed
        )


# -- ambient injector ---------------------------------------------------------

_global_injector: FaultInjector | None = None


def set_fault_injector(injector: FaultInjector | None) -> None:
    """Install (or clear) the process-wide ambient injector."""
    global _global_injector
    # GIL-atomic reference swap; readers see old or new, never a torn
    # value
    _global_injector = injector


def get_fault_injector() -> FaultInjector | NullFaultInjector:
    return _global_injector if _global_injector is not None \
        else NULL_INJECTOR
