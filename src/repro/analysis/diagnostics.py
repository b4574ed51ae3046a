"""Diagnostic records emitted by the static analyzers.

Every finding carries a stable code (``AQnnn``), a severity, and a
locus, so reports are machine-checkable and human readable at the same
time.  A finding is anchored to a plan node — the ``node_id``
assigned by :func:`repro.sqlir.assign_node_ids` plus the node's
``repr``.

Code taxonomy (see DESIGN.md §6 for the full tables):

- ``AQ1xx`` — schema / dtype inference (typecheck pass)
- ``AQ2xx`` — suspend predictions (one code per real SuspendReason)
- ``AQ3xx`` — PE program verification
- ``AQ4xx`` — morsel merge-safety verdicts
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "PlanAnalysisWarning",
    "PlanRejected",
    "Severity",
    "diag",
]


class Severity(Enum):
    ERROR = "error"      # the plan will raise or compute garbage
    WARNING = "warning"  # suspicious / lossy, but executable
    INFO = "info"        # advisory (fallbacks, DEPENDS estimates)

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to a plan node."""

    code: str
    severity: Severity
    message: str
    node_id: int | None = None
    node: str = ""  # repr of the plan node at the locus

    def __str__(self) -> str:
        locus = f" at node {self.node_id} {self.node}" if self.node else ""
        return f"{self.code} [{self.severity.value}]{locus}: {self.message}"

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "node_id": self.node_id,
            "node": self.node,
        }


class PlanRejected(Exception):
    """Raised by ``Engine(analyze="strict")`` when the analyzer finds
    errors; carries the full report."""

    def __init__(self, report: "AnalysisReport") -> None:
        self.report = report
        lines = [str(d) for d in report.errors()]
        super().__init__(
            "static analysis rejected the plan:\n" + "\n".join(lines)
        )


class PlanAnalysisWarning(UserWarning):
    """Category used by ``Engine(analyze="warn")``."""


@dataclass
class AnalysisReport:
    """Aggregated result of one :func:`repro.analysis.analyze_plan` run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    # reason.name -> SuspendPrediction (filled by the suspend pass)
    suspend: dict = field(default_factory=dict)
    # morsel-safety verdicts (filled by the morsel pass)
    fragments: list = field(default_factory=list)
    n_nodes: int = 0
    passes: tuple[str, ...] = ()
    # The TypeChecker that typed the plan: its memoised ``schema_of``
    # is the plan's static schema (not part of the JSON document).
    checker: Any = field(default=None, repr=False, compare=False)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "n_nodes": self.n_nodes,
            "passes": list(self.passes),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "suspend": {
                name: prediction.to_json()
                for name, prediction in self.suspend.items()
            },
            "fragments": [f.to_json() for f in self.fragments],
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"plan: {self.n_nodes} nodes, passes: {', '.join(self.passes)}"
        ]
        ordered = sorted(
            self.diagnostics, key=lambda d: -d.severity.rank
        )
        if ordered:
            lines.append("diagnostics:")
            lines.extend(f"  {d}" for d in ordered)
        else:
            lines.append("diagnostics: none")
        if self.suspend:
            lines.append("suspend predictions:")
            for name, prediction in self.suspend.items():
                lines.append(f"  {name}: {prediction.describe()}")
        if self.fragments:
            lines.append("morsel fragments:")
            for verdict in self.fragments:
                lines.append(f"  {verdict.describe()}")
        counts = (
            f"{len(self.errors())} errors, {len(self.warnings())} warnings"
        )
        status = "OK" if self.ok else "REJECTED"
        lines.append(f"verdict: {status} ({counts})")
        return "\n".join(lines)


def diag(
    code: str,
    severity: Severity,
    message: str,
    node: object = None,
) -> Diagnostic:
    """Build a diagnostic anchored at a plan node (or free-floating)."""
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        node_id=getattr(node, "node_id", None),
        node=repr(node) if node is not None else "",
    )
