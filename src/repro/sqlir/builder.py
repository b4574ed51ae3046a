"""Fluent plan construction, for plans written by hand (tests, ablations,
examples) rather than planned from SQL::

    plan = (
        scan("lineitem")
        .filter(col("l_shipdate") <= lit_date("1998-09-02"))
        .aggregate(
            keys=("l_returnflag", "l_linestatus"),
            aggs=[("sum_qty", AggFunc.SUM, col("l_quantity"))],
        )
        .sort("l_returnflag", "l_linestatus")
        .plan
    )
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sqlir.expr import AggFunc, Expr
from repro.sqlir.plan import (
    Aggregate,
    AggSpec,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
    SortKey,
)


class PlanBuilder:
    """Wraps a plan node and chains operators onto it."""

    def __init__(self, plan: Plan):
        self.plan = plan

    def filter(self, predicate: Expr) -> "PlanBuilder":
        return PlanBuilder(Filter(self.plan, predicate))

    def project(self, **outputs: Expr) -> "PlanBuilder":
        """Keyword form: ``.project(revenue=col("a") * col("b"))``.

        Note: keyword order is the output column order (Python preserves
        it), but names with special characters need :meth:`project_items`.
        """
        return self.project_items(list(outputs.items()))

    def project_items(
        self, outputs: Sequence[tuple[str, Expr]]
    ) -> "PlanBuilder":
        return PlanBuilder(Project(self.plan, tuple(outputs)))

    def join(
        self,
        right: "PlanBuilder | Plan",
        left_key: str,
        right_key: str,
        kind: JoinKind = JoinKind.INNER,
        residual: Expr | None = None,
    ) -> "PlanBuilder":
        right_plan = right.plan if isinstance(right, PlanBuilder) else right
        return PlanBuilder(
            Join(self.plan, right_plan, left_key, right_key, kind, residual)
        )

    def aggregate(
        self,
        keys: Iterable[str] = (),
        aggs: Sequence[tuple[str, AggFunc, Expr | None]] = (),
        having: Expr | None = None,
    ) -> "PlanBuilder":
        specs = tuple(AggSpec(n, f, e) for n, f, e in aggs)
        return PlanBuilder(Aggregate(self.plan, tuple(keys), specs, having))

    def sort(self, *keys: str | SortKey) -> "PlanBuilder":
        sort_keys = tuple(
            k if isinstance(k, SortKey) else SortKey(k) for k in keys
        )
        return PlanBuilder(Sort(self.plan, sort_keys))

    def sort_desc(self, *columns: str) -> "PlanBuilder":
        return PlanBuilder(
            Sort(self.plan, tuple(SortKey(c, ascending=False) for c in columns))
        )

    def limit(self, count: int) -> "PlanBuilder":
        return PlanBuilder(Limit(self.plan, count))

    def distinct(self) -> "PlanBuilder":
        return PlanBuilder(Distinct(self.plan))


def scan(table: str, columns: Iterable[str] | None = None) -> PlanBuilder:
    """Start a plan at a base-table scan."""
    cols = tuple(columns) if columns is not None else None
    return PlanBuilder(Scan(table, cols))


def desc(column: str) -> SortKey:
    """Descending sort key (for use in ``.sort``)."""
    return SortKey(column, ascending=False)
