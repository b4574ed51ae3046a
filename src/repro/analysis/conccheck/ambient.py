"""Pass 3 — ambient-state discipline (AQ530–AQ531).

The runtime's ambient singletons — the global tracer behind
:data:`~repro.obs.spans.NULL_TRACER`, the global injector behind
:data:`~repro.faults.injector.NULL_INJECTOR`, and the ``/healthz``
degraded flag — are the one place worker and parent state deliberately
meet.  The contract (DESIGN.md §10) is narrow:

- worker-side code may *read* ambient state freely
  (``get_tracer()`` / ``get_fault_injector()`` are cheap and pure),
  but may only *install* it at the sanctioned process-worker entry
  points, where each batch gets a fresh per-batch instance
  (``AQ530`` otherwise);
- worker observability crosses back to the parent **only** through
  the repatriation APIs — :meth:`Tracer.adopt` for span records and
  :meth:`FaultInjector.absorb` for fault deltas — and those APIs are
  called only from the sanctioned repatriation points (``AQ531``
  otherwise): a stray ``adopt``/``absorb`` call double-counts
  counters and fabricates trace lanes.
"""

from __future__ import annotations

import ast

from repro.analysis.conccheck.model import Project
from repro.analysis.conccheck.report import lint_diag
from repro.analysis.diagnostics import Diagnostic

__all__ = ["AMBIENT_INSTALLERS", "REPATRIATION_METHODS", "run_ambient_pass"]

# Functions (by bare name) that install ambient state.
AMBIENT_INSTALLERS = frozenset({
    "set_global_tracer", "set_fault_injector", "set_degraded",
    "clear_degraded", "set_last_trace", "set_query_context",
    "set_query_log",
})
# Methods that carry worker observability back into the parent.
REPATRIATION_METHODS = frozenset({"adopt", "absorb"})


def run_ambient_pass(
    project: Project,
    worker_reachable: set[str],
    sanctioned_installers: tuple[str, ...],
    sanctioned_repatriation: tuple[str, ...],
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for info in project.functions_in_scope(set(project.functions)):
        in_worker = info.qualname in worker_reachable
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name in AMBIENT_INSTALLERS and in_worker and \
                    info.qualname not in sanctioned_installers and \
                    info.name not in AMBIENT_INSTALLERS:
                out.append(lint_diag(
                    "AQ530",
                    f"{name}(...) installs ambient state from "
                    "worker-reachable code outside the sanctioned "
                    "worker entry points — ambient singletons must "
                    "only be swapped at batch setup/teardown",
                    path=info.path, node=node, symbol=info.qualname,
                ))
            if name in REPATRIATION_METHODS and \
                    isinstance(func, ast.Attribute) and \
                    info.qualname not in sanctioned_repatriation:
                out.append(lint_diag(
                    "AQ531",
                    f".{name}(...) repatriates worker observability "
                    "outside the sanctioned repatriation points — "
                    "spans and fault deltas would double-count",
                    path=info.path, node=node, symbol=info.qualname,
                ))
    return out
