"""Deterministic, seeded fault plans.

A :class:`FaultPlan` decides *where* faults strike as a pure function
of ``(seed, site)`` — never of execution order.  Morsel spans run on
a pool of forked worker processes whose scheduling varies run to run,
so sequence-drawn randomness would make faulted runs unreproducible;
instead every decision is addressed by a stable name:

- page-granular faults (read errors, latency spikes) hash the global
  flash page id through a splitmix64 PRF, vectorised over whole page
  batches;
- site-granular faults (worker crashes, device faults) hash a
  hierarchical site string through the same SHA-256 derivation
  :class:`~repro.util.rng.RngStream` uses for its child streams.

Same seed ⇒ same fault sites, same retry counts, same stall charges —
regardless of worker count or interleaving.  That determinism is what
lets ``tests/test_determinism.py`` assert bit-identical recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.util.rng import RngStream

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_TWO64 = float(2**64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser — a cheap, well-mixed uint64 PRF."""
    with np.errstate(over="ignore"):
        x = (x + _GOLDEN).astype(np.uint64)
        x = (x ^ (x >> _U64(30))) * _MIX1
        x = (x ^ (x >> _U64(27))) * _MIX2
        return x ^ (x >> _U64(31))


@dataclass(frozen=True)
class FaultConfig:
    """Rates and recovery knobs for one fault plan.

    Rates are per *site*: per page read for the flash classes, per
    morsel for worker crashes, per offloaded subtree for device
    faults, per flash channel for stalls.  ``retry_budget`` is the
    number of retries allowed after the first failure — budget 0 turns
    any transient fault terminal.
    """

    page_error_rate: float = 0.0     # transient flash page read errors
    latency_spike_rate: float = 0.0  # page reads that stall, not fail
    latency_spike_us: float = 400.0
    worker_crash_rate: float = 0.0   # morsel-worker exceptions
    device_fault_rate: float = 0.0   # mid-task device deaths
    channel_stall_rate: float = 0.0  # whole-channel stalls
    channel_stall_ms: float = 5.0
    retry_budget: int = 3            # retries after the first failure
    backoff_base_us: float = 200.0   # exponential: base * 2^attempt

    def any_faults(self) -> bool:
        return any(
            getattr(self, f.name) > 0
            for f in fields(self)
            if f.name.endswith("_rate")
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class PageOutcome:
    """Vectorised per-page fault decisions for one read batch."""

    retries: np.ndarray        # int64: failed attempts per page
    spikes: np.ndarray         # bool: pages hit by a latency spike
    unrecoverable: np.ndarray  # bool: still failing after the budget


class FaultPlan:
    """Seeded fault-site oracle: pure (seed, site) → decision."""

    def __init__(self, seed: int, config: FaultConfig | None = None):
        self.seed = seed
        self.config = config or FaultConfig()
        self._salts: dict[str, np.uint64] = {}

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, {self.config})"

    # -- addressing ---------------------------------------------------------

    def _salt(self, name: str) -> np.uint64:
        salt = self._salts.get(name)
        if salt is None:
            salt = _U64(RngStream._derive(self.seed, f"faults/{name}"))
            self._salts[name] = salt
        return salt

    def _hit_pages(
        self, pages: np.ndarray, name: str, rate: float
    ) -> np.ndarray:
        """Boolean fault mask over a page-id batch, keyed by page id."""
        if rate <= 0.0:
            return np.zeros(len(pages), dtype=np.bool_)
        if rate >= 1.0:
            return np.ones(len(pages), dtype=np.bool_)
        draws = _splitmix64(pages ^ self._salt(name))
        return draws < _U64(int(rate * _TWO64))

    def site_hit(self, site: str, rate: float) -> bool:
        """One named decision — deterministic, order-independent."""
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        draw = RngStream._derive(self.seed, f"faults/{site}")
        return draw / _TWO64 < rate

    # -- page-granular classes ----------------------------------------------

    def page_outcomes(self, page_ids) -> PageOutcome:
        """Decide errors, retries and spikes for a batch of page reads.

        A page retries until an attempt succeeds; attempt ``k`` fails
        independently with ``page_error_rate`` under the attempt-salted
        PRF, so a retried page usually recovers and a rate of 1.0 never
        does.  Pages still failing after ``retry_budget`` retries are
        unrecoverable.
        """
        pages = np.asarray(page_ids, dtype=np.int64).astype(np.uint64)
        cfg = self.config
        retries = np.zeros(len(pages), dtype=np.int64)
        failing = np.ones(len(pages), dtype=np.bool_)
        if cfg.page_error_rate > 0.0:
            for attempt in range(cfg.retry_budget + 1):
                hit = self._hit_pages(
                    pages, f"page-error/{attempt}", cfg.page_error_rate
                )
                failing &= hit
                retries += failing
        else:
            failing[:] = False
        spikes = self._hit_pages(
            pages, "latency-spike", cfg.latency_spike_rate
        )
        return PageOutcome(
            retries=retries, spikes=spikes, unrecoverable=failing
        )

    def backoff_seconds(self, retries: np.ndarray) -> np.ndarray:
        """Total exponential backoff paid for the given retry counts.

        Retry ``k`` (0-based) waits ``base * 2^k``; the total for ``n``
        retries is the geometric sum ``base * (2^n - 1)``.
        """
        base = self.config.backoff_base_us * 1e-6
        return base * (np.power(2.0, retries) - 1.0)

    # -- site-granular classes -----------------------------------------------

    def worker_crashes(self, site: str, attempt: int) -> bool:
        return self.site_hit(
            f"worker/{site}/a{attempt}", self.config.worker_crash_rate
        )

    def device_faults(self, site: str) -> bool:
        return self.site_hit(
            f"device/{site}", self.config.device_fault_rate
        )

    def channel_stall_seconds(self, n_channels: int) -> np.ndarray:
        """Per-channel injected stall, in seconds."""
        stalls = np.zeros(n_channels, dtype=np.float64)
        if self.config.channel_stall_rate <= 0.0:
            return stalls
        for channel in range(n_channels):
            if self.site_hit(
                f"channel/{channel}", self.config.channel_stall_rate
            ):
                stalls[channel] = self.config.channel_stall_ms * 1e-3
        return stalls
