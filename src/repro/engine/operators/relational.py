"""The relational operators: one pure function per operator.

Every execution path — the monolithic engine, the morsel executor and
the device model — computes filter, project, join, aggregate, sort and
distinct through these functions, so their results agree by
construction.  The functions take and return :class:`Relation` values
(or row indices) and record nothing: traces, page accounting, DRAM
allocations and meters belong to the driver that calls them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.operators.grouping import (
    GroupedKeys,
    aggregate_count,
    aggregate_count_distinct,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    group_rows,
)
from repro.engine.operators.joins import inner_join_indices, semi_join_mask
from repro.engine.operators.sorting import multi_key_order
from repro.engine.relation import Relation, key_values, select_rows
from repro.sqlir.expr import (
    AggFunc,
    EvalContext,
    Expr,
    Kind,
    TypedArray,
    evaluate,
    repeated_subtrees,
)
from repro.sqlir.plan import MATCH_FLAG, Aggregate, JoinKind, SortKey


def _context(rel: Relation, subquery_executor, exprs=()) -> EvalContext:
    """A context over ``rel``'s rows that evaluates each Arith subtree
    repeated among ``exprs`` once (:func:`repeated_subtrees`).  It
    lives as long as the operator's one call: nothing it holds is seen
    by another relation or span."""
    return EvalContext(
        columns=rel.columns,
        nrows=rel.nrows,
        subquery_executor=subquery_executor,
        shared=repeated_subtrees(exprs),
    )


# -- filter / project ----------------------------------------------------


def predicate_mask(
    rel: Relation, predicate: Expr, subquery_executor=None
) -> np.ndarray:
    """Boolean keep-mask of ``predicate`` over the rows of ``rel``."""
    return evaluate(
        predicate, _context(rel, subquery_executor)
    ).values.astype(np.bool_, copy=False)


def filter_relation(
    rel: Relation, predicate: Expr, subquery_executor=None
) -> Relation:
    return rel.mask(predicate_mask(rel, predicate, subquery_executor))


def project_relation(
    rel: Relation,
    outputs: tuple[tuple[str, Expr], ...],
    subquery_executor=None,
) -> Relation:
    ctx = _context(rel, subquery_executor, [expr for _, expr in outputs])
    return Relation({name: evaluate(expr, ctx) for name, expr in outputs})


# -- join ----------------------------------------------------------------


Residual = Callable[[np.ndarray, np.ndarray], np.ndarray]


def join_pairs(
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    residual: Residual | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``(li, ri)`` row pairs of an equi-join that pass ``residual``.

    ``residual(li, ri)`` returns a boolean mask over candidate pairs;
    how the pairs are materialised to evaluate it (and what that costs)
    is the caller's business.  Also returns the number of key-equal
    pairs found before the residual.
    """
    li, ri = inner_join_indices(left_keys, right_keys)
    pairs = len(li)
    if residual is not None:
        ok = residual(li, ri)
        li, ri = li[ok], ri[ok]
    return li, ri, pairs


def join_keep(
    kind: JoinKind,
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    residual: Residual | None = None,
) -> tuple[np.ndarray, int]:
    """The left-row keep-mask of a SEMI or ANTI join, and its pair count."""
    if residual is None:
        matched = semi_join_mask(left_keys, right_keys)
        pairs = int(matched.sum())
    else:
        li, _, pairs = join_pairs(left_keys, right_keys, residual)
        matched = np.zeros(len(left_keys), dtype=np.bool_)
        matched[li] = True
    return (matched if kind is JoinKind.SEMI else ~matched), pairs


def _disjoint(left: Relation, right: Relation) -> None:
    for name in right.columns:
        if name in left.columns:
            raise ValueError(
                f"join column collision on {name!r}; rename inputs first"
            )


def pair_relation(
    left: Relation, right: Relation, li: np.ndarray, ri: np.ndarray
) -> Relation:
    """Materialise inner-join pairs: left columns then right columns.

    Column names must be disjoint (TPC-H prefixes guarantee it; self-join
    builders rename first).
    """
    _disjoint(left, right)
    return Relation({**left.take(li).columns, **right.take(ri).columns})


def left_outer_relation(
    left: Relation, right: Relation, li: np.ndarray, ri: np.ndarray
) -> Relation:
    """Left-outer pairs plus a ``@matched`` flag column.

    Unmatched left rows appear once with zeroed right columns and a
    false flag (SQL NULLs; TPC-H's only outer join immediately counts
    the matched side, which the flag expresses exactly).
    """
    _disjoint(left, right)
    matched_any = np.zeros(left.nrows, dtype=np.bool_)
    matched_any[li] = True
    missing = np.flatnonzero(~matched_any)

    columns = left.take(np.concatenate([li, missing])).columns
    for name, arr in right.columns.items():
        padded = np.concatenate(
            [arr.values[ri], np.zeros(len(missing), dtype=arr.values.dtype)]
        )
        columns[name] = TypedArray(padded, arr.kind, arr.scale, arr.heap)
    columns[MATCH_FLAG] = TypedArray(
        np.repeat([True, False], [len(li), len(missing)]), Kind.BOOL
    )
    return Relation(columns)


# -- aggregate -----------------------------------------------------------


def aggregate_relation(
    child: Relation,
    plan: Aggregate,
    subquery_executor=None,
) -> tuple[Relation, GroupedKeys]:
    """Group ``child`` by the plan's keys and compute its aggregates.

    Returns the output relation and the grouping (for spill/group
    accounting).
    """
    ctx = _context(
        child, subquery_executor,
        [spec.expr for spec in plan.aggregates if spec.expr is not None],
    )
    key_arrays = [child.column(k) for k in plan.keys]
    groups = group_rows([key_values(k) for k in key_arrays], child.nrows)

    columns: dict[str, TypedArray] = {}
    for name, key in zip(plan.keys, key_arrays):
        columns[name] = TypedArray(
            select_rows(key, groups.representative).values,
            key.kind, key.scale, key.heap,
        )
    sums = _GroupedSums(groups)
    for spec in plan.aggregates:
        columns[spec.name] = _aggregate_one(spec, ctx, groups, sums)

    out = Relation(columns)
    if plan.having is not None:
        out = filter_relation(out, plan.having, subquery_executor)
    return out, groups


def _numeric(arr: TypedArray) -> np.ndarray:
    if arr.kind is Kind.FLOAT:
        return arr.values.astype(np.float64, copy=False)
    return arr.values.astype(np.int64, copy=False)


# Below this, every partial sum of integers is an exactly representable
# float64, whatever order the sums are taken in.
_FLOAT_EXACT = 2**53


class _GroupedSums:
    """One exact grouped sum per operand of an aggregate: every SUM and
    AVG whose operand evaluates to the same array — one column, or one
    subtree the context computed once — reads the same sum, int64 for
    fixed point and float64 for floats (Sec. VI-C: all of a group's
    aggregates in one pass).  Keyed by the array's identity; the entry
    holds the array, so the identity is not reused while it lives."""

    def __init__(self, groups: GroupedKeys):
        self.groups = groups
        self._sums: dict[int, tuple[TypedArray, np.ndarray]] = {}

    def total(self, values: TypedArray) -> np.ndarray:
        held = self._sums.get(id(values))
        if held is None:
            held = self._sums[id(values)] = (
                values, aggregate_sum(_numeric(values), self.groups)
            )
        return held[1]

    def float_total(self, values: TypedArray) -> np.ndarray:
        """The float64 sum AVG divides: the shared sum itself for a
        float operand, or converted when ``max|v| * rows < 2**53`` —
        then every partial sum of ``np.add.at`` over the floats is an
        exact integer, so the conversion equals it bit for bit.
        Otherwise the floats themselves are summed."""
        total = self.total(values)
        if values.kind is Kind.FLOAT:
            return total
        v = values.values
        if not len(v) or (
            max(int(v.max()), -int(v.min())) * len(v) < _FLOAT_EXACT
        ):
            return total.astype(np.float64)
        return aggregate_sum(
            _numeric(values).astype(np.float64), self.groups
        )


def _aggregate_one(
    spec, ctx: EvalContext, groups: GroupedKeys, sums: _GroupedSums
) -> TypedArray:
    if spec.func is AggFunc.COUNT and spec.expr is None:
        return TypedArray(aggregate_count(groups), Kind.INT, 0)
    values = evaluate(spec.expr, ctx)
    if spec.func is AggFunc.COUNT:
        return TypedArray(aggregate_count(groups), Kind.INT, 0)
    if spec.func is AggFunc.COUNT_DISTINCT:
        return TypedArray(
            aggregate_count_distinct(values.values, groups), Kind.INT, 0
        )
    if spec.func is AggFunc.SUM:
        return TypedArray(
            sums.total(values), values.kind, values.scale
        )
    if spec.func is AggFunc.AVG:
        totals = sums.float_total(values)
        counts = aggregate_count(groups)
        means = np.where(counts == 0, 0.0, totals / np.maximum(counts, 1))
        if values.kind is Kind.INT and values.scale:
            means = means / (10**values.scale)
        return TypedArray(means, Kind.FLOAT, 0)
    if spec.func is AggFunc.MIN:
        return TypedArray(
            aggregate_min(_numeric(values), groups),
            values.kind,
            values.scale,
        )
    if spec.func is AggFunc.MAX:
        return TypedArray(
            aggregate_max(_numeric(values), groups),
            values.kind,
            values.scale,
        )
    raise NotImplementedError(spec.func)


# -- sort / distinct -----------------------------------------------------


def sort_relation(
    rel: Relation, keys: tuple[SortKey, ...], limit: int | None = None
) -> Relation:
    """Stable sort by ``keys``; with ``limit``, only the first rows."""
    order = multi_key_order(
        [(rel.column(k.column), k.ascending) for k in keys]
    )
    return rel.take(order if limit is None else order[:limit])


def distinct_relation(rel: Relation) -> Relation:
    """One row per distinct tuple, in first-appearance order."""
    groups = group_rows([key_values(arr) for arr in rel.columns.values()])
    return rel.take(np.sort(groups.representative))
