"""Process-wide counters, gauges and histograms.

Instruments are created once (module import or first use) and cached by
name in a registry, so hot loops pay one attribute load and one guarded
add per update — there is no name lookup on the update path.  Updates
are batch-granular by design: the executors increment per morsel, per
column read or per operator, never per row, which keeps the cost well
under the observability overhead budget (see
``benchmarks/test_obs_overhead.py``).

The query thread writes the instruments; morsel workers are processes
and ship their counts back to it.  The locks are for a reader on
another thread (an embedding process rendering the registry while a
query updates it).  A small lock per instrument gives that reader one
consistent view (a histogram's
buckets, sum and count from the same moment; ``value += n`` is a
read-modify-write even under the GIL); at batch granularity the lock
is noise.

The default process-wide registry is :data:`METRICS`.  ``reset()``
zeroes values but keeps the instrument objects, so call sites that
cached them keep recording — important because the CLI resets between
queries.
"""

from __future__ import annotations

import bisect
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "METRICS",
    "MetricsDelta",
    "MetricsRegistry",
    "flat_key",
]

# Decade buckets cover everything we observe (rows, bytes, rows/s).
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(13))

# 1-2.5-5 decades from 1 ms to 1 min: one bucket is narrow enough that
# a bucket-interpolated p99 (``histogram_quantile`` on the scraper's
# side) stays within a small factor of the true quantile.
LATENCY_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0,
)

# Labels: [a-zA-Z_][a-zA-Z0-9_]* (Prometheus label-name grammar; no
# colons — those are reserved for metric names).
_RESERVED_LABELS = frozenset({"le"})


def _valid_label_name(name: str) -> bool:
    if not name or not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


def _labelset(labelkv: dict) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted, stringified) label set for one child."""
    if not labelkv:
        raise ValueError("labels() needs at least one label")
    for name in labelkv:
        if not _valid_label_name(name):
            raise ValueError(f"invalid label name {name!r}")
        if name in _RESERVED_LABELS:
            raise ValueError(
                f"label name {name!r} is reserved (histogram buckets)"
            )
    return tuple(sorted((k, str(v)) for k, v in labelkv.items()))


def flat_key(name: str, labelset: tuple[tuple[str, str], ...]) -> str:
    """One readable string identity per series.

    Used wherever a series must key a plain dict — registry snapshots,
    wide-event counter deltas, time-series JSON: ``name`` for the bare
    instrument, ``name{k=v,...}`` for a labeled child.
    """
    if not labelset:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labelset)
    return f"{name}{{{inner}}}"


class _LabelsMixin:
    """Labeled-children support shared by every instrument class.

    ``counter("queries_total").labels(backend="process")`` returns a
    *child* instrument of the same class, cached on the parent by its
    canonical (sorted) label set, so hot loops hold the child reference
    and pay exactly the unlabeled update cost.  The parent remains a
    usable unlabeled instrument; exporters render it plus every child
    as one metric family.
    """

    def labels(self, **labelkv):
        if self.labelset:
            raise TypeError(
                f"{self.name}: labels() on an already-labeled child"
            )
        key = _labelset(labelkv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                child.labelset = key
                self._children[key] = child
                self._children_sorted = None
            return child

    def children(self):
        """Labeled children, sorted by label set (export order).

        The sorted view is cached — the per-query delta ledger walks
        every family twice per query, while children appear rarely.
        Callers must not mutate the returned tuple's order.
        """
        cached = self._children_sorted
        if cached is None:
            with self._lock:
                cached = self._children_sorted = tuple(sorted(
                    self._children.values(),
                    key=lambda c: c.labelset,
                ))
        return cached

    @property
    def key(self) -> str:
        # Cached: name and labelset are fixed once the child is handed
        # out, and the delta ledger reads key on every instrument per
        # query.
        cached = self._key
        if cached is None:
            cached = self._key = flat_key(self.name, self.labelset)
        return cached


class Counter(_LabelsMixin):
    """Monotonically increasing count (pages read, suspensions...)."""

    __slots__ = ("name", "help", "value", "labelset", "_children",
                 "_children_sorted", "_lock", "_key")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0
        self._key = None
        self.labelset: tuple[tuple[str, str], ...] = ()
        self._children: dict[tuple, "Counter"] = {}
        self._children_sorted: tuple | None = ()
        self._lock = threading.Lock()  # readable from another thread

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def reset(self) -> None:
        with self._lock:
            self.value = 0
            children = list(self._children.values())
        for child in children:
            child.reset()


class Gauge(_LabelsMixin):
    """A point-in-time level (cache hit ratio, DRAM residency...)."""

    __slots__ = ("name", "help", "value", "labelset", "_children",
                 "_children_sorted", "_lock", "_key")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self._key = None
        self.labelset: tuple[tuple[str, str], ...] = ()
        self._children: dict[tuple, "Gauge"] = {}
        self._children_sorted: tuple | None = ()
        self._lock = threading.Lock()  # readable from another thread

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0
            children = list(self._children.values())
        for child in children:
            child.reset()


class Histogram(_LabelsMixin):
    """Cumulative-bucket distribution (rows per morsel, rows/s...)."""

    __slots__ = ("name", "help", "bounds", "bucket_counts", "sum",
                 "count", "labelset", "_children", "_children_sorted",
                 "_lock", "_key")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +inf last
        self.sum = 0.0
        self.count = 0
        self._key = None
        self.labelset: tuple[tuple[str, str], ...] = ()
        self._children: dict[tuple, "Histogram"] = {}
        self._children_sorted: tuple | None = ()
        self._lock = threading.Lock()  # readable from another thread

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.bounds)

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[idx] += 1
            self.sum += value
            self.count += 1

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.bounds) + 1)
            self.sum = 0.0
            self.count = 0
            children = list(self._children.values())
        for child in children:
            child.reset()

    def snapshot(self) -> tuple[tuple[int, ...], float, int]:
        """Consistent ``(bucket_counts, sum, count)`` under the lock.

        Exporters must use this instead of reading the fields directly:
        a concurrent ``observe()`` between field reads can yield a
        cumulative bucket count above the ``+Inf`` total, which
        Prometheus rejects as a non-monotonic histogram.
        """
        with self._lock:
            return tuple(self.bucket_counts), self.sum, self.count

    def totals(self) -> tuple[float, int]:
        """Consistent ``(sum, count)`` without copying the buckets.

        The per-query delta ledger only tracks totals, so it skips the
        bucket-tuple copy :meth:`snapshot` pays on every call.
        """
        with self._lock:
            return self.sum, self.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create instrument store; one per process is the norm."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._sorted: tuple | None = ()
        self._lock = threading.Lock()  # readable from another thread

    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            self._sorted = None
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self, name: str, help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    def instruments(self) -> tuple[Counter | Gauge | Histogram, ...]:
        """Metric *families* (labeled children hang off each parent).

        Cached sorted view: families register once and then the delta
        ledger and exporter walk this list constantly.
        """
        cached = self._sorted
        if cached is None:
            with self._lock:
                cached = self._sorted = tuple(sorted(
                    self._instruments.values(),
                    key=lambda m: m.name,
                ))
        return cached

    def all_instruments(self) -> list[Counter | Gauge | Histogram]:
        """Every series: each family followed by its labeled children."""
        out: list[Counter | Gauge | Histogram] = []
        for m in self.instruments():
            out.append(m)
            out.extend(m.children())
        return out

    def snapshot(self) -> dict[str, float | dict]:
        """Plain-value view for assertions and JSON reports."""
        out: dict[str, float | dict] = {}
        for m in self.all_instruments():
            if isinstance(m, Histogram):
                out[m.key] = {
                    "count": m.count, "sum": m.sum, "mean": m.mean
                }
            else:
                out[m.key] = m.value
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
        for m in registry.all_instruments():
            if isinstance(m, Histogram):
                self._base[m.key] = m.totals()
            else:
                self._base[m.key] = m.value

    def collect(self) -> dict[str, float | dict]:
        """Per-instrument movement since the baseline.

        Counters and gauges report ``current - base``; histograms
        report ``{"count": dcount, "sum": dsum}``.  Instruments whose
        value did not move are dropped, so two back-to-back queries
        report disjoint counter sets when they touch disjoint paths.
        Labeled children appear under their flat ``name{k=v}`` key.
        """
        out: dict[str, float | dict] = {}
        for m in self._registry.all_instruments():
            if isinstance(m, Histogram):
                base_sum, base_count = self._base.get(m.key, (0.0, 0))
                hsum, count = m.totals()
                dcount = count - base_count
                if dcount or hsum != base_sum:
                    out[m.key] = {
                        "count": dcount, "sum": hsum - base_sum
                    }
            else:
                base = self._base.get(m.key, 0.0)
                moved = m.value - base
                if moved:
                    out[m.key] = moved
        return out


METRICS = MetricsRegistry()
