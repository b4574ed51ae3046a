"""The ``repro lint`` report: source-anchored diagnostics.

The conccheck engine reports findings in the same two shapes the plan
analyzer uses (``repro analyze``): a human multi-line report and a
machine-checkable JSON document, with the same
:class:`~repro.analysis.diagnostics.Diagnostic` record.  Where a plan
diagnostic is anchored to a plan node, a lint diagnostic carries a
:class:`~repro.analysis.diagnostics.SourceLocus` — repo-relative path,
1-based line, and the qualified name of the enclosing function
(``repro.engine.morsel:SpanRunner.run_span_safe``).

Codes are stable (``AQ5xx``, see DESIGN.md §11).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import (
    Diagnostic,
    Report,
    Severity,
    SourceLocus,
)

__all__ = ["PASSES", "ConccheckReport", "lint_diag"]

# The passes of every run, in the order they run.
PASSES = ("boundary", "determinism", "ambient")


def lint_diag(
    code: str,
    message: str,
    *,
    path: str = "",
    node: ast.AST | None = None,
    symbol: str = "",
    severity: Severity = Severity.ERROR,
) -> Diagnostic:
    """Build a diagnostic anchored at an AST node's locus."""
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        source=SourceLocus(
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            symbol=symbol,
        ),
    )


def _source_order(d: Diagnostic) -> tuple[str, int, str]:
    assert d.source is not None  # lint_diag always sets it
    return d.source.path, d.source.line, d.code


@dataclass
class ConccheckReport(Report):
    """Aggregated result of one
    :func:`repro.analysis.conccheck.lint_project` run."""

    # Findings a conc-safe annotation justified away.
    suppressed: list[Diagnostic] = field(default_factory=list)
    n_files: int = 0
    n_functions: int = 0
    n_worker_reachable: int = 0
    elapsed_s: float = 0.0

    def sort(self) -> None:
        """Stable report order: path, line, code."""
        self.diagnostics.sort(key=_source_order)
        self.suppressed.sort(key=_source_order)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "n_files": self.n_files,
            "n_functions": self.n_functions,
            "n_worker_reachable": self.n_worker_reachable,
            "passes": list(PASSES),
            "elapsed_s": round(self.elapsed_s, 3),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "suppressed": [d.to_json() for d in self.suppressed],
        }

    def format(self, verbose: bool = False) -> str:
        """Human-readable multi-line report (the ``repro lint`` shape)."""
        lines = [
            f"conccheck: {self.n_files} files, "
            f"{self.n_functions} functions "
            f"({self.n_worker_reachable} worker-reachable), "
            f"passes: {', '.join(PASSES)}"
        ]
        ordered = sorted(self.diagnostics, key=lambda d: -d.severity.rank)
        if ordered:
            lines.append("diagnostics:")
            lines.extend(f"  {d}" for d in ordered)
        else:
            lines.append("diagnostics: none")
        if verbose and self.suppressed:
            lines.append("suppressed (# conc: safe):")
            lines.extend(f"  {d}" for d in self.suppressed)
        lines.append(self.verdict_line(
            f"{len(self.suppressed)} conc-safe", f"{self.elapsed_s:.2f}s"
        ))
        return "\n".join(lines)
