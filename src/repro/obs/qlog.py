"""The query log: one wide event per query.

A **wide event** is the per-query ledger AQUOMAN's analysis is made
of: one JSON object carrying the plan fingerprint, backend, wall time,
per-bucket critical-path attribution (:mod:`repro.obs.critpath`), the
movement of every metric the query caused
(:meth:`~repro.obs.metrics.MetricsRegistry.delta` — no cross-query
bleed), fault/retry counts, suspend predictions vs. actuals, and the
spans the query lost to ring wrap-around.  Events append to a JSONL
file.  The run's other record is its Chrome trace (``--trace-out``):
every span in it carries its query's ``qid``, so one query's spans are
a filter over the whole-run trace.

**Ownership.**  :func:`query_scope` is entered by both
:meth:`~repro.engine.executor.Engine.execute_relation` and
:meth:`~repro.core.simulator.AquomanSimulator.run`; whichever enters
first *owns* the query — it mints the :class:`QueryContext`, installs
it as the ambient (so every span and fault instant is stamped with the
``qid``), and emits exactly one wide event on exit.  Nested entries
(the simulator's inner :class:`~repro.core.simulator.HybridEngine`,
re-entrant fragments) see an active context and become passive.

Layering: imports sibling ``obs`` modules only, never the engine.
"""

from __future__ import annotations

import json
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
from repro.obs.export import load_schema, validate_json
from repro.obs.metrics import METRICS
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

SCHEMA_VERSION = 2


def warn_dropped_spans(n_dropped: int, where: str,
                       stream: Any = None) -> None:
    """One-line WARNING when ring wrap evicted spans.

    Shared by ``doctor``, every ``--trace-out`` / ``--query-log`` run
    and wide-event emission so a truncated trace is never silently
    presented as complete.  The remedy names its command: only
    ``repro doctor`` has ``--ring-capacity``; ``query``, ``evaluate``
    and library callers reach the same knob through ``Tracer``.
    """
    if n_dropped <= 0:
        return
    print(
        f"WARNING: {n_dropped} spans dropped by ring wrap-around "
        f"({where}); the trace is incomplete (repro doctor "
        f"--ring-capacity N, or Tracer(ring_capacity=N), records more)",
        file=stream if stream is not None else sys.stderr,
    )


class QueryLog:
    """Appends wide events to a JSONL file."""

    def __init__(self, path: str):
        self.path = path
        self.n_emitted = 0
        self._fh: Any = None

    def emit(self, doc: dict[str, Any]) -> None:
        # The handle stays open across queries (reopening per event
        # triples the emit cost); each line is flushed so readers — and
        # a crash post-mortem — always see complete events.
        if self._fh is None:
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(doc) + "\n")
        self._fh.flush()
        self.n_emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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
                 "_delta", "_span_mark", "_fault_base", "annotations")

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
        log = self._log
        self._delta = METRICS.delta() if log is not None else None
        tracer = self._tracer
        self._span_mark = (
            tracer.mark()
            if log is not None and getattr(tracer, "enabled", False)
            else None
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
        if self._span_mark is not None:
            records = [
                (lane, rec)
                for lane, rec in self._tracer.records()
                if rec[2] >= self._t0_ns
                and (rec[3] == INSTANT or rec[2] + rec[3] <= t1_ns + 1)
            ]
            doc["critpath"] = _critpath_section(records)
        warn_dropped_spans(
            doc["spans_dropped"],
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
            # This query's own loss, not the tracer's running total.
            "spans_dropped": (
                self._tracer.dropped_since(self._span_mark)
                if self._span_mark is not None else 0
            ),
            "critpath": None,
            "counters": (
                self._delta.collect() if self._delta is not None else {}
            ),
            "faults": self._fault_section(),
            "suspend": None,
            "analysis": None,
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
