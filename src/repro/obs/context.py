"""Per-query identity, propagated end-to-end through every executor.

A :class:`QueryContext` names one query execution: a process-monotonic
``query_id``, the plan's structural fingerprint, the backend that ran
it, and (under fault injection) the fault seed.  The ambient context follows the
same discipline as the ambient tracer in :mod:`repro.obs.spans`:

1. **Absent must be free.**  The default is ``None``; the only cost at
   a check site is a module-global load.  Span stamping
   (:meth:`~repro.obs.spans.Span.__exit__`) pays one ``is None`` test
   when no context is installed.
2. **Install is owner-scoped.**  :func:`repro.obs.qlog.query_scope`
   installs a context only when none is active, so nested executions
   (the simulator's inner :class:`~repro.core.simulator.HybridEngine`,
   scalar subqueries) inherit the owner's identity instead of minting
   their own.
3. **Workers receive it by wire.**  ``procpool.batch_opts`` ships
   :meth:`QueryContext.to_wire` in every batch header; the worker-side
   ``_handle`` installs it for the batch so spans recorded in the
   worker process carry the same ``qid`` the parent stamps.

Identity, not state: a context is frozen at creation.  Everything
mutable about a query (annotations, counters, the wide event) lives in
:mod:`repro.obs.qlog`.

The process-wide **degraded flag** lives here too, under the same
swap discipline: the fault layer sets it when a recovery path had to
run, the process pool repatriates it from workers, and the
determinism harness reads it after each run.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any

__all__ = [
    "QueryContext",
    "clear_degraded",
    "get_degraded",
    "get_query_context",
    "next_query_id",
    "plan_fingerprint",
    "set_degraded",
    "set_query_context",
    "sql_digest",
]


@dataclass(frozen=True)
class QueryContext:
    """Identity of one query execution (immutable)."""

    query_id: int
    query: str                 # human label, e.g. "q06"
    fingerprint: str           # structural plan digest (plan_fingerprint)
    backend: str               # serial | process | device
    seed: int | None = None    # fault seed when an injector is installed

    def to_wire(self) -> tuple:
        """Picklable form shipped in procpool batch headers."""
        return (self.query_id, self.query, self.fingerprint,
                self.backend, self.seed)

    @classmethod
    def from_wire(cls, wire: tuple) -> "QueryContext":
        qid, query, fingerprint, backend, seed = wire
        return cls(query_id=qid, query=query, fingerprint=fingerprint,
                   backend=backend, seed=seed)


# -- monotonic query ids -------------------------------------------------------

_id_lock = threading.Lock()
_next_id = 0


def next_query_id() -> int:
    """Process-monotonic query id (1, 2, 3, ...)."""
    global _next_id
    with _id_lock:
        _next_id += 1
        return _next_id


# -- fingerprints --------------------------------------------------------------

def plan_fingerprint(plan: Any) -> str:
    """Structural digest of a plan tree, stable across runs.

    Hashes every node's ``repr`` in ``walk()`` post-order; node reprs
    include operator type, predicate/key expressions, and child shape,
    so two plans collide only when they are structurally identical.
    This is the key two query logs' runs align on.
    Computed once per plan object and kept on its root
    (:attr:`repro.sqlir.plan.Plan.fingerprint`): a plan executed many
    times is not re-``repr``-ed per execution.
    """
    if plan.fingerprint is None:
        h = hashlib.sha256()
        for node in plan.walk():
            h.update(f"{type(node).__name__}:{node!r}\n".encode())
        plan.fingerprint = h.hexdigest()[:16]
    return plan.fingerprint


def sql_digest(sql: str | None) -> str | None:
    """Whitespace-normalised digest of the source SQL text, if any."""
    if not sql:
        return None
    normalised = " ".join(sql.split()).lower()
    return hashlib.sha256(normalised.encode()).hexdigest()[:16]


# -- the ambient context -------------------------------------------------------

# Installed by qlog.query_scope for the owning execution's duration and
# by procpool._handle for each worker batch; None means "no query is
# running", the stamping fast path.
_context: QueryContext | None = None


def set_query_context(context: QueryContext | None) -> None:
    global _context
    # GIL-atomic reference swap; a reader sees either the old context
    # or the new one, never a torn reference
    _context = context


def get_query_context() -> QueryContext | None:
    return _context


# -- the degraded flag ---------------------------------------------------------

# None = healthy; a dict = the most recent degradation and its context.
# Writers replace the whole dict, readers use whatever reference they
# grabbed.
_degraded: dict[str, Any] | None = None


def set_degraded(reason: str, **info: Any) -> None:
    """Mark the process degraded (a recovery path had to run)."""
    global _degraded
    # GIL-atomic reference swap (documented above)
    _degraded = {"reason": reason, **info}


def clear_degraded() -> None:
    global _degraded
    _degraded = None  # GIL-atomic reference swap


def get_degraded() -> dict[str, Any] | None:
    return _degraded
