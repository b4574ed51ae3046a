"""Wall-clock spans, one ring buffer per lane.

A :class:`Tracer` records what the Python runtime actually *did* —
monotonic wall-clock intervals attributed to named stages — next to the
modeled data flow in :class:`~repro.perf.trace.QueryTrace`.  Design
constraints, in order:

1. **Disabled must be free.**  Executors default to the shared
   :data:`NULL_TRACER`, whose ``span()`` returns one preallocated no-op
   context manager; the only cost at an instrumentation point is an
   attribute load and a call.  The overhead gate in
   ``benchmarks/test_obs_overhead.py`` keeps this honest.
2. **One recording thread per process; other processes are adopted.**
   A tracer records on the thread that created it — the query's
   thread — into its own ring, named after that thread
   (``MainThread``).  Morsel workers are processes: each reply carries
   the worker's records and :meth:`Tracer.adopt` files them under a
   ``proc-worker-N`` ring, so nothing is shared and nothing is locked.
3. **Nesting must survive export.**  Spans carry their stack depth and
   self-time (duration minus direct children), computed at record time
   from the active stack, so the flame summary needs no interval
   reconstruction.

Records are plain tuples, ``(name, lane, t0_ns, dur_ns, depth,
self_ns, args)``; ``dur_ns == -1`` marks an instant event (a point in
time, e.g. a device suspension).  ``lane`` defaults to the ring's lane
and becomes the Chrome-trace ``tid`` row — passing
``lane="device.row_selector"`` routes a span to a synthetic device
lane regardless of the host thread that modeled it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator

from repro.obs import context as _qctx

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_global_tracer",
    "traced",
]

# (name, lane-or-None, t0_ns, dur_ns, depth, self_ns, args-or-None)
SpanRecord = tuple  # noqa: UP006 - alias for documentation purposes

INSTANT = -1  # dur_ns sentinel for point events
DEFAULT_RING_CAPACITY = 65_536


class _Ring:
    """One lane's span ring buffer: overwrite-oldest, counting drops."""

    __slots__ = ("lane", "capacity", "records", "cursor", "dropped")

    def __init__(self, lane: str, capacity: int):
        self.lane = lane
        self.capacity = capacity
        self.records: list[SpanRecord] = []
        self.cursor = 0       # overwrite position once the ring is full
        self.dropped = 0      # spans evicted by wrap-around

    def append(self, record: SpanRecord) -> None:
        if len(self.records) < self.capacity:
            self.records.append(record)
            return
        self.records[self.cursor] = record
        self.cursor = (self.cursor + 1) % self.capacity
        self.dropped += 1

    @property
    def appended(self) -> int:
        """Records ever appended: those held plus those evicted."""
        return len(self.records) + self.dropped

    def in_order(self) -> list[SpanRecord]:
        """Records oldest-first (un-rotating the ring)."""
        return self.records[self.cursor:] + self.records[:self.cursor]


class Span:
    """One timed interval; use as a context manager."""

    __slots__ = ("_tracer", "name", "lane", "args", "_t0", "child_ns")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        lane: str | None,
        args: dict[str, Any] | None,
    ):
        self._tracer = tracer
        self.name = name
        self.lane = lane
        self.args = args
        self.child_ns = 0

    def set(self, **args: Any) -> "Span":
        """Attach attributes after entry (e.g. an output row count)."""
        if self.args is None:
            self.args = args
        else:
            self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._t0 = time.monotonic_ns()  # last: exclude setup from dur
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.monotonic_ns()
        tracer = self._tracer
        stack = tracer._stack
        stack.pop()
        dur = t1 - self._t0
        if stack:
            stack[-1].child_ns += dur
        ctx = _qctx.get_query_context()
        args = self.args
        if ctx is not None:
            # Stamp the owning query onto the record at completion
            # time, so every span — including worker spans repatriated
            # by adopt() and inline re-runs after a dead worker — is
            # attributable without call sites threading the id through.
            if args is None:
                args = {"qid": ctx.query_id}
            else:
                args.setdefault("qid", ctx.query_id)
        tracer._own.append(
            (self.name, self.lane, self._t0, dur, len(stack),
             dur - self.child_ns, args)
        )


class Tracer:
    """Collects one thread's spans and instants, plus adopted lanes."""

    enabled = True

    def __init__(self, ring_capacity: int | None = None):
        # Records per lane; None (the CLI's unset --ring-capacity)
        # means the default.
        self.ring_capacity = ring_capacity or DEFAULT_RING_CAPACITY
        self.epoch_ns = time.monotonic_ns()
        self._own = _Ring(
            threading.current_thread().name, self.ring_capacity
        )
        self._stack: list[Span] = []
        # Lane -> ring: the own lane first, then adopted lanes in
        # adoption order — the order records() yields them in.
        self._rings: dict[str, _Ring] = {self._own.lane: self._own}

    # -- recording -----------------------------------------------------------

    def span(self, name: str, lane: str | None = None,
             **args: Any) -> Span:
        return Span(self, name, lane, args or None)

    def instant(self, name: str, lane: str | None = None,
                **args: Any) -> None:
        """Record a point event (suspension, rollback, cache clear...)."""
        ctx = _qctx.get_query_context()
        if ctx is not None:
            args.setdefault("qid", ctx.query_id)
        self._own.append(
            (name, lane, time.monotonic_ns(), INSTANT, len(self._stack),
             0, args or None)
        )

    def adopt(self, lane: str, records: list[SpanRecord]) -> None:
        """Ingest records produced outside this process.

        Process-pool workers repatriate their span tuples with each
        reply; the parent files them under a synthetic lane (e.g.
        ``proc-worker-3``) so the Chrome export and the doctor's lane
        accounting see worker rows exactly like the own lane's.  Worker
        timestamps come from the same system-wide ``CLOCK_MONOTONIC``,
        so they line up against this tracer's epoch unchanged.
        """
        ring = self._rings.get(lane)
        if ring is None:
            ring = self._rings[lane] = _Ring(lane, self.ring_capacity)
        for record in records:
            ring.append(tuple(record))

    # -- reading -------------------------------------------------------------

    def records(self) -> Iterator[tuple[str, SpanRecord]]:
        """Yield ``(lane, record)`` pairs, each lane in recording order."""
        for ring in self._rings.values():
            for record in ring.in_order():
                yield ring.lane, record

    @property
    def n_records(self) -> int:
        return sum(len(ring.records) for ring in self._rings.values())

    @property
    def n_dropped(self) -> int:
        return sum(ring.dropped for ring in self._rings.values())

    def mark(self) -> dict[str, int]:
        """Records appended so far, per lane: the baseline of
        :meth:`dropped_since`."""
        return {lane: ring.appended for lane, ring in self._rings.items()}

    def dropped_since(self, mark: dict[str, int]) -> int:
        """Of the records appended since ``mark``, how many the rings
        no longer hold.  A ring keeps its newest ``capacity`` records,
        so a lane that took ``n`` since the mark lost ``n - capacity``
        of them, if that is positive; evictions of older records are
        not counted."""
        return sum(
            max(0, ring.appended - mark.get(lane, 0) - ring.capacity)
            for lane, ring in self._rings.items()
        )

    def total_ns(self, name: str) -> int:
        """Summed duration of every span with ``name`` (instants = 0)."""
        return sum(
            rec[3]
            for _, rec in self.records()
            if rec[0] == name and rec[3] != INSTANT
        )


class _NullSpan:
    """The shared do-nothing span behind a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def set(self, **args: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every call is a constant-time no-op."""

    enabled = False
    epoch_ns = 0

    def span(self, name: str, lane: str | None = None,
             **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, lane: str | None = None,
                **args: Any) -> None:
        pass

    def records(self) -> Iterator[tuple[str, SpanRecord]]:
        return iter(())

    n_records = 0
    n_dropped = 0

    def total_ns(self, name: str) -> int:
        return 0


NULL_TRACER = NullTracer()

# The ambient tracer: lets module-level code (storage I/O, the analysis
# gate, the ``@traced`` decorator) participate without every call site
# threading a tracer argument through.  A ``--trace-out`` or
# ``--query-log`` run installs its tracer here for the run's duration.
_global_tracer: Tracer | NullTracer = NULL_TRACER


def set_global_tracer(tracer: Tracer | None) -> None:
    global _global_tracer
    # GIL-atomic reference swap; a reader gets either the old tracer
    # or the new one, never a torn reference
    _global_tracer = tracer if tracer is not None else NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    return _global_tracer


def traced(name: str, lane: str | None = None) -> Callable:
    """Decorator form: time every call against the *global* tracer."""

    def wrap(fn: Callable) -> Callable:
        def inner(*args: Any, **kwargs: Any) -> Any:
            tracer = _global_tracer
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name, lane=lane):
                return fn(*args, **kwargs)

        inner.__name__ = fn.__name__
        inner.__doc__ = fn.__doc__
        inner.__qualname__ = fn.__qualname__
        inner.__wrapped__ = fn
        return inner

    return wrap
