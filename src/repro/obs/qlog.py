"""The query log: one wide event per query, with tail sampling.

A **wide event** is the per-query ledger AQUOMAN's analysis is made
of: one JSON object carrying the plan fingerprint, backend, wall time,
per-bucket critical-path attribution (:mod:`repro.obs.critpath`), the
movement of every metric the query caused
(:meth:`~repro.obs.metrics.MetricsRegistry.delta` — no cross-query
bleed), fault/retry counts, suspend predictions vs. actuals, and the
dropped-span count.  Events append to a JSONL file.

**Ownership.**  :func:`query_scope` is entered by both
:meth:`~repro.engine.executor.Engine.execute_relation` and
:meth:`~repro.core.simulator.AquomanSimulator.run`; whichever enters
first *owns* the query — it mints the :class:`QueryContext`, installs
it as the ambient (so every span and fault instant is stamped with the
``qid``), and emits exactly one wide event on exit.  Nested entries
(the simulator's inner :class:`~repro.core.simulator.HybridEngine`,
re-entrant fragments) see an active context and become passive.

**Tail sampling.**  Full Chrome traces are large; wide events are
small.  With ``sample_slowest_k``/``trace_dir`` set, the log keeps
complete traces only for queries that are (a) among the slowest *k* so
far, (b) faulted, or (c) suspend-mispredicted — the three populations
worth a deep dive — and evicts the trace of whichever query falls out
of the slowest-*k* heap.  The wide-event row itself is always
appended; its ``trace_path`` may point at an evicted file.

Layering: imports sibling ``obs`` modules only, never the engine.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any

from repro.obs.context import (
    QueryContext,
    get_query_context,
    next_query_id,
    plan_fingerprint,
    set_query_context,
    sql_digest,
)
from repro.obs.critpath import analyze_records
from repro.obs.export import chrome_trace, load_schema, validate_json
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    METRICS,
    MetricsRegistry,
)
from repro.obs.spans import INSTANT

__all__ = [
    "QueryLog",
    "QueryScope",
    "get_query_log",
    "query_scope",
    "set_query_log",
    "validate_wide_event",
    "warn_dropped_spans",
]

SCHEMA_VERSION = 1


def warn_dropped_spans(n_dropped: int, where: str,
                       stream: Any = None) -> None:
    """One-line WARNING when ring wrap evicted spans.

    Shared by ``doctor``, every ``--trace-out`` / ``--query-log`` run
    and wide-event emission so a truncated trace is never silently
    presented as complete.
    """
    if n_dropped <= 0:
        return
    print(
        f"WARNING: {n_dropped} spans dropped by ring wrap-around "
        f"({where}); raise --ring-capacity for a complete trace",
        file=stream if stream is not None else sys.stderr,
    )


class QueryLog:
    """Appends wide events to JSONL; optionally retains sampled traces."""

    def __init__(
        self,
        path: str,
        *,
        sample_slowest_k: int = 0,
        trace_dir: str | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.path = path
        self.sample_slowest_k = sample_slowest_k
        self.trace_dir = trace_dir
        self.registry = registry if registry is not None else METRICS
        self.n_emitted = 0
        self._fh: Any = None
        # Per-backend fleet children, cached so emit() skips the
        # registry get-or-create and label canonicalization each time.
        self._fleet: dict[str, tuple[Any, Any]] = {}
        # Min-heap of (wall_ms, query_id, trace_path): the root is the
        # fastest retained query — first out when a slower one arrives.
        self._slowest: list[tuple[float, int, str]] = []

    # -- emission --------------------------------------------------------------

    def emit(self, doc: dict[str, Any]) -> None:
        # The handle stays open across queries (reopening per event
        # triples the emit cost); each line is flushed so readers — and
        # a crash post-mortem — always see complete events.
        if self._fh is None:
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(doc) + "\n")
        self._fh.flush()
        self.n_emitted += 1
        self._record_fleet_metrics(doc)

    def _record_fleet_metrics(self, doc: dict[str, Any]) -> None:
        """Fold the finished query into the fleet instruments.

        These ``query.*`` series are what ``--metrics-out`` exports
        for a scraper to turn into QPS, p99 and fault/mispredict burn
        rates (README "Metrics for a scraper").  Labels carry the
        backend only — the fingerprint stays in the wide event, per the
        cardinality policy (DESIGN.md §13).  Recording happens *after*
        the event's own counter delta was collected, so a query's
        ledger never contains its own fleet bookkeeping.
        """
        registry = self.registry
        backend = str(doc.get("backend") or "unknown")
        cached = self._fleet.get(backend)
        if cached is None:
            cached = (
                registry.counter(
                    "query.completed", "Queries finished (any outcome)"
                ).labels(backend=backend),
                registry.histogram(
                    "query.latency_ms",
                    "End-to-end query wall time (ms)",
                    buckets=LATENCY_BUCKETS_MS,
                ).labels(backend=backend),
            )
            self._fleet[backend] = cached
        completed, latency = cached
        completed.inc()
        latency.observe(float(doc.get("wall_ms", 0.0)))
        if doc.get("faults"):
            registry.counter(
                "query.faulted", "Queries that saw injected faults"
            ).labels(backend=backend).inc()
        suspend = doc.get("suspend") or {}
        if suspend.get("mispredicted"):
            registry.counter(
                "query.suspend_mispredicted",
                "Queries whose suspend prediction missed",
            ).labels(backend=backend).inc()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- tail sampling ---------------------------------------------------------

    def sampling_enabled(self) -> bool:
        return bool(self.trace_dir) and self.sample_slowest_k > 0

    def maybe_retain_trace(
        self, doc: dict[str, Any],
        records: list[tuple[str, tuple]],
        epoch_ns: int,
    ) -> str | None:
        """Decide retention for one query's trace; write it if kept.

        Returns the trace path when retained.  Faulted and
        suspend-mispredicted queries are always kept (they never enter
        the slowest-k heap, so they cannot be evicted by fast queries);
        everything else competes on wall time.
        """
        if not self.sampling_enabled():
            return None
        faulted = bool(doc.get("faults"))
        suspend = doc.get("suspend") or {}
        mispredicted = bool(suspend.get("mispredicted"))
        wall_ms = float(doc.get("wall_ms", 0.0))
        keep_always = faulted or mispredicted
        if not keep_always:
            if (
                len(self._slowest) >= self.sample_slowest_k
                and wall_ms <= self._slowest[0][0]
            ):
                return None
        path = self._write_trace(doc, records, epoch_ns)
        if not keep_always:
            heapq.heappush(
                self._slowest, (wall_ms, doc["query_id"], path)
            )
            if len(self._slowest) > self.sample_slowest_k:
                _, _, evicted = heapq.heappop(self._slowest)
                try:
                    os.unlink(evicted)
                except OSError:
                    pass
        return path

    def _write_trace(
        self, doc: dict[str, Any],
        records: list[tuple[str, tuple]],
        epoch_ns: int,
    ) -> str:
        os.makedirs(self.trace_dir, exist_ok=True)
        # query_id is process-monotonic; the fingerprint disambiguates
        # runs from different processes sharing one trace dir.
        path = os.path.join(
            self.trace_dir,
            f"q{doc['query_id']:06d}-{doc['fingerprint'][:8]}.trace.json",
        )
        trace_doc = chrome_trace(
            records, epoch_ns, int(doc.get("spans_dropped", 0)),
            metadata={
                "query_id": doc["query_id"],
                "fingerprint": doc["fingerprint"],
            },
        )
        with open(path, "w") as fh:
            json.dump(trace_doc, fh)
        return path


# The ambient query log: installed by the CLI for a run's duration so
# executors emit without every call site threading the log through.
# None (the default) costs one global load per query.
_query_log: QueryLog | None = None


def set_query_log(log: QueryLog | None) -> None:
    global _query_log
    # GIL-atomic reference swap; a reader sees either the old log or
    # the new one, never a torn reference
    _query_log = log


def get_query_log() -> QueryLog | None:
    return _query_log


# ---------------------------------------------------------------------------
# The owner scope
# ---------------------------------------------------------------------------


class QueryScope:
    """Handle yielded by :func:`query_scope`.

    Owners accumulate :meth:`annotate` extras and emit the wide event
    on exit; passive (nested) scopes accept annotations and drop them.
    """

    __slots__ = ("ctx", "owner", "_log", "_tracer", "_t0_ns",
                 "_delta", "_fault_base", "annotations")

    def __init__(self, ctx: QueryContext | None, owner: bool,
                 log: QueryLog | None, tracer: Any):
        self.ctx = ctx
        self.owner = owner
        self._log = log
        self._tracer = tracer
        self.annotations: dict[str, Any] = {}

    def annotate(self, **extras: Any) -> None:
        """Attach caller facts (suspends, model bytes, AQ codes...).

        Passive scopes drop annotations: the owner's ledger describes
        the owner's run, and the shared passive singleton must not
        accumulate state across queries.
        """
        if self.owner:
            self.annotations.update(extras)

    # -- owner internals -------------------------------------------------------

    def _open(self) -> None:
        self._delta = (
            self._log.registry.delta() if self._log is not None else None
        )
        injector = _get_injector()
        self._fault_base = (
            dict(injector.counts) if injector.enabled else None
        )
        self._t0_ns = time.monotonic_ns()

    def _close(self) -> None:
        t1_ns = time.monotonic_ns()
        log = self._log
        if log is None:
            return
        doc = self._build_event(t1_ns)
        if getattr(self._tracer, "enabled", False):
            records = [
                (lane, rec)
                for lane, rec in self._tracer.records()
                if rec[2] >= self._t0_ns
                and (rec[3] == INSTANT or rec[2] + rec[3] <= t1_ns + 1)
            ]
            doc["critpath"] = _critpath_section(records)
            trace_path = log.maybe_retain_trace(
                doc, records, self._tracer.epoch_ns
            )
            if trace_path is not None:
                doc["trace_path"] = trace_path
        warn_dropped_spans(
            int(doc.get("spans_dropped", 0)),
            f"query {doc['query_id']} ({doc['query'] or 'unnamed'})",
        )
        log.emit(doc)

    def _build_event(self, t1_ns: int) -> dict[str, Any]:
        ctx = self.ctx
        doc: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "query_id": ctx.query_id,
            "query": ctx.query,
            "fingerprint": ctx.fingerprint,
            "backend": ctx.backend,
            "seed": ctx.seed,
            "ts_unix": time.time(),
            "wall_ms": (t1_ns - self._t0_ns) / 1e6,
            "spans_dropped": int(
                getattr(self._tracer, "n_dropped", 0) or 0
            ),
            "critpath": None,
            "counters": (
                self._delta.collect() if self._delta is not None else {}
            ),
            "faults": self._fault_section(),
            "suspend": None,
            "analysis": None,
            "trace_path": None,
        }
        # Well-known annotations land as top-level sections; the rest
        # ride in "annotations" untyped.
        extras = dict(self.annotations)
        for key in ("suspend", "analysis", "sql_digest"):
            if key in extras:
                doc[key] = extras.pop(key)
        doc.setdefault("sql_digest", None)
        doc["annotations"] = extras
        return doc

    def _fault_section(self) -> dict[str, Any] | None:
        injector = _get_injector()
        if not injector.enabled:
            return None
        base = self._fault_base or {}
        moved = {
            k: v - base.get(k, 0)
            for k, v in injector.counts.items()
            if v - base.get(k, 0)
        }
        return {"counts": moved} if moved else None


def _get_injector() -> Any:
    from repro.faults.injector import get_fault_injector

    return get_fault_injector()


def _critpath_section(
    records: list[tuple[str, tuple]],
) -> dict[str, Any] | None:
    """Per-bucket attribution of this query's record window.

    Bucket milliseconds sum to ``path_ms`` exactly (critical-path
    segments partition the root window by construction), so a
    per-bucket comparison of two runs reconciles with their measured
    path delta.
    """
    try:
        analysis = analyze_records(records, root_name="engine.query")
    except ValueError:
        return None
    path_ms = analysis.path_ns / 1e6
    buckets = {
        bucket: round(frac * path_ms, 6)
        for bucket, frac in analysis.attribution.items()
    }
    return {
        "path_ms": round(path_ms, 6),
        "bottleneck": analysis.bottleneck,
        "buckets": buckets,
        "top_spans": [
            [name, bucket, round(ns / 1e6, 6)]
            for name, bucket, ns in analysis.top_path_spans(5)
        ],
    }


_PASSIVE_SCOPE = QueryScope(None, owner=False, log=None, tracer=None)


@contextmanager
def query_scope(
    plan: Any,
    *,
    query: str = "",
    backend: str = "serial",
    seed: int | None = None,
    tracer: Any = None,
    sql: str | None = None,
):
    """Own (or join) the query-lifecycle scope around one execution.

    The first caller on the way down becomes the owner: it mints the
    monotonic ``query_id``, fingerprints the plan, installs the ambient
    :class:`QueryContext` for span stamping, and emits the wide event
    when the block exits.  Re-entrant callers get a passive scope.

    When neither a query log nor an enabled tracer is present the scope
    is a no-op beyond two global loads — the disabled-mode budget in
    ``benchmarks/test_obs_overhead.py`` covers this path.
    """
    log = get_query_log()
    enabled = log is not None or bool(getattr(tracer, "enabled", False))
    if not enabled or get_query_context() is not None:
        yield _PASSIVE_SCOPE
        return
    if seed is None:
        # Faulted runs: adopt the ambient injector's seed so the wide
        # event records which fault plan shaped this query.
        injector = _get_injector()
        if injector.enabled:
            seed = injector.plan.seed
    ctx = QueryContext(
        query_id=next_query_id(),
        query=query,
        fingerprint=plan_fingerprint(plan),
        backend=backend,
        seed=seed,
    )
    scope = QueryScope(ctx, owner=True, log=log, tracer=tracer)
    if sql is not None:
        scope.annotate(sql_digest=sql_digest(sql))
    set_query_context(ctx)
    scope._open()
    try:
        yield scope
    finally:
        set_query_context(None)
        scope._close()


def validate_wide_event(doc: dict[str, Any]) -> list[str]:
    """Problems (empty = valid) of one wide event against
    ``wide_event.schema.json``."""
    return validate_json(doc, load_schema("wide_event.schema.json"))
