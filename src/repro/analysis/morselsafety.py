"""Morsel merge-safety proofs (pass 4).

Decides — statically — which aggregate fragments merge bit-identically
under :mod:`repro.engine.morsel` parallelism and which need the
monolithic fallback.  The rules are the streaming algebra's:

- COUNT partials add, MIN/MAX partials re-reduce, and SUM partials add
  exactly *only* on the int64 domain;
- float addition is not associative, so AVG and float-valued SUMs would
  change rounding across morsel boundaries (``AQ402``);
- COUNT DISTINCT partials cannot be merged at all (``AQ401``);
- scalar subqueries inside the fragment would re-execute per morsel
  (``AQ403``).

SUM value kinds come from the plan's static schema
(:class:`repro.analysis.typecheck.TypeChecker`, whose lenient inference
mirrors ``evaluate()`` exactly) — the single source of truth for the
engine's merge decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.typecheck import InferenceError, Kind, TypeChecker
from repro.sqlir.expr import AggFunc
from repro.sqlir.plan import (
    Aggregate,
    Filter,
    Plan,
    Project,
    Scan,
    has_subquery,
    node_exprs,
    walk_with_subqueries,
)

__all__ = [
    "MERGEABLE_FUNCS",
    "MergeVerdict",
    "aggregate_merge_verdict",
    "streamable_chain",
    "fragment_verdicts",
]

# The only aggregate functions whose partials re-reduce exactly.
MERGEABLE_FUNCS = (AggFunc.COUNT, AggFunc.SUM, AggFunc.MIN, AggFunc.MAX)


@dataclass(frozen=True)
class MergeVerdict:
    """Whether one aggregate fragment may merge per-morsel partials."""

    mergeable: bool
    code: str = ""       # AQ401/AQ402/AQ403/AQ404 when not mergeable
    reason: str = ""
    node_id: int | None = None
    node: str = ""

    def describe(self) -> str:
        locus = f"node {self.node_id} {self.node}: " if self.node else ""
        if self.mergeable:
            return f"{locus}mergeable (int-exact partials)"
        return f"{locus}monolithic [{self.code}]: {self.reason}"

    def to_json(self) -> dict:
        return {
            "mergeable": self.mergeable,
            "code": self.code,
            "reason": self.reason,
            "node_id": self.node_id,
            "node": self.node,
        }


def aggregate_merge_verdict(
    plan: Aggregate,
    scan: Scan,
    steps: Any,
    catalog: Any,
    checker: TypeChecker | None = None,
) -> MergeVerdict:
    """Merge-safety verdict for an Aggregate over a scan-rooted chain.

    ``steps`` are the Filter/Project nodes between the scan and the
    aggregate, bottom-up (what :func:`streamable_chain` returns).
    ``checker`` is the analysis's schema of the plan; the engine, which
    asks about one fragment at a time, passes none.
    """

    def refuse(code: str, reason: str) -> MergeVerdict:
        return MergeVerdict(
            mergeable=False,
            code=code,
            reason=reason,
            node_id=plan.node_id,
            node=repr(plan),
        )

    for spec in plan.aggregates:
        if spec.func not in MERGEABLE_FUNCS:
            return refuse(
                "AQ401",
                f"{spec.name}={spec.func.value}() partials do not "
                "re-reduce",
            )
        if spec.expr is not None and has_subquery(spec.expr):
            return refuse(
                "AQ403",
                f"{spec.name} embeds a scalar subquery; per-morsel "
                "re-execution is not streamable",
            )
    sums = [s for s in plan.aggregates if s.func is AggFunc.SUM]
    if not sums:
        return MergeVerdict(
            mergeable=True, node_id=plan.node_id, node=repr(plan)
        )

    if checker is None:
        checker = TypeChecker(catalog, collect=False)
    try:
        schema = checker.schema_of(plan.child)
        if schema is None:
            raise InferenceError("AQ110", f"unknown table {scan.table!r}")
        for step in steps:
            if step in checker.failures:
                raise checker.failures[step]
        for spec in sums:
            meta = checker.infer(spec.expr, schema, plan)
            if meta.kind is Kind.FLOAT:
                return refuse(
                    "AQ402",
                    f"SUM({spec.name}) is float-valued; morsel merge "
                    "would change rounding order",
                )
    except InferenceError as err:
        return refuse(
            "AQ404",
            f"chain fails static inference ({err.code}: {err.message})",
        )
    return MergeVerdict(
        mergeable=True, node_id=plan.node_id, node=repr(plan)
    )


def streamable_chain(node: Plan) -> tuple[Scan, tuple[Plan, ...]] | None:
    """The (scan, steps) chain under ``node`` if it is pure streaming:
    Filter/Project steps without subqueries down to a base-table scan."""
    steps: list[Plan] = []
    while isinstance(node, (Filter, Project)):
        steps.append(node)
        node = node.child
    # The shape first: the engine asks this of every plan node, and most
    # chains it walks end in a join, not a scan.
    if not isinstance(node, Scan) or any(
        has_subquery(e) for step in steps for e in node_exprs(step)
    ):
        return None
    steps.reverse()
    return node, tuple(steps)


def fragment_verdicts(
    plan: Plan, catalog: Any, checker: TypeChecker | None = None
) -> list[MergeVerdict]:
    """Merge verdicts for every aggregate fragment anywhere in the plan
    (including inside scalar subqueries)."""
    if checker is None:
        checker = TypeChecker(catalog, collect=False)
    verdicts: list[MergeVerdict] = []
    # dict.fromkeys: a subtree two parents share is judged once
    for node in dict.fromkeys(walk_with_subqueries(plan)):
        if isinstance(node, Aggregate):
            chain = streamable_chain(node.child)
            if chain is not None:
                verdicts.append(
                    aggregate_merge_verdict(node, *chain, catalog, checker)
                )
    return verdicts
