"""Process-wide counters, gauges and histograms.

Instruments are created once (module import or first use) and cached by
name in a registry, so hot loops pay one attribute load and one guarded
add per update — there is no name lookup on the update path.  Updates
are batch-granular by design: the executors increment per morsel, per
column read or per operator, never per row, which keeps the cost well
under the observability overhead budget (see
``benchmarks/test_obs_overhead.py``).

The query thread writes and reads the instruments; morsel workers are
processes and ship their counts back to it, so nothing updates an
instrument from another thread and no update takes a lock.

Instruments are keyed by name alone: there are no labeled families.
What differs per query (backend, fingerprint, faults) lives in that
query's wide event (:mod:`repro.obs.qlog`), not in a series.

The default process-wide registry is :data:`METRICS`.  ``reset()``
zeroes values but keeps the instrument objects, so call sites that
cached them keep recording.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsDelta",
    "MetricsRegistry",
]

class Counter:
    """Monotonically increasing count (pages read, suspensions...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time level (cache hit ratio, DRAM residency...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A distribution's running ``count`` and ``sum`` (rows per
    fragment...); snapshots report its mean."""

    __slots__ = ("name", "sum", "count")

    def __init__(self, name: str):
        self.name = name
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.sum = 0.0
        self.count = 0

    def totals(self) -> tuple[float, int]:
        return self.sum, self.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create instrument store; one per process is the norm."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._sorted: tuple | None = ()

    def _get(self, name: str, cls):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        instrument = cls(name)
        self._instruments[name] = instrument
        self._sorted = None
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def instruments(self) -> tuple[Counter | Gauge | Histogram, ...]:
        """Every instrument, sorted by name.

        Cached: instruments register once, and the delta ledger walks
        this list twice per query.
        """
        cached = self._sorted
        if cached is None:
            cached = self._sorted = tuple(sorted(
                self._instruments.values(), key=lambda m: m.name
            ))
        return cached

    def snapshot(self) -> dict[str, float | dict]:
        """Plain-value view for assertions and JSON reports."""
        out: dict[str, float | dict] = {}
        for m in self.instruments():
            if isinstance(m, Histogram):
                out[m.name] = {
                    "count": m.count, "sum": m.sum, "mean": m.mean
                }
            else:
                out[m.name] = m.value
        return out

    def reset(self) -> None:
        """Zero every instrument, keeping cached references valid."""
        for m in self.instruments():
            m.reset()

    def delta(self) -> "MetricsDelta":
        """Scoped snapshot: what changed since this call.

        The registry is process-wide and accumulates across queries;
        reading raw values for a per-query report bleeds the previous
        query's counts into the next one's ledger.  ``delta()`` records
        a baseline and :meth:`MetricsDelta.collect` returns only the
        movement since — instruments created after the baseline count
        from zero, zero-movement instruments are omitted.
        """
        return MetricsDelta(self)


class MetricsDelta:
    """Baseline captured by :meth:`MetricsRegistry.delta`."""

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._base: dict[str, float | tuple[float, int]] = {}
        for m in registry.instruments():
            if isinstance(m, Histogram):
                self._base[m.name] = m.totals()
            else:
                self._base[m.name] = m.value

    def collect(self) -> dict[str, float | dict]:
        """Per-instrument movement since the baseline.

        Counters and gauges report ``current - base``; histograms
        report ``{"count": dcount, "sum": dsum}``.  Instruments whose
        value did not move are dropped, so two back-to-back queries
        report disjoint counter sets when they touch disjoint paths.
        """
        out: dict[str, float | dict] = {}
        for m in self._registry.instruments():
            if isinstance(m, Histogram):
                base_sum, base_count = self._base.get(m.name, (0.0, 0))
                hsum, count = m.totals()
                dcount = count - base_count
                if dcount or hsum != base_sum:
                    out[m.name] = {
                        "count": dcount, "sum": hsum - base_sum
                    }
            else:
                base = self._base.get(m.name, 0.0)
                moved = m.value - base
                if moved:
                    out[m.name] = moved
        return out


METRICS = MetricsRegistry()
