"""Logical plan nodes.

A plan is a tree; every node produces a (named, ordered) relation.
These are the nodes MonetDB's optimiser would hand us, and the unit the
AQUOMAN compiler walks to carve out offloadable subtrees.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from repro.sqlir.expr import AggFunc, Expr, ScalarSubquery


class Plan:
    """Base class for plan nodes."""

    # Stable tree-position id assigned by :func:`assign_node_ids`; used
    # by the static analyzer as the diagnostic locus.  ``None`` until a
    # numbering pass runs.
    node_id: int | None = None
    # Memo of :func:`repro.obs.context.plan_fingerprint` on the root it
    # was computed for.  A plan is not edited once built (``replace``
    # makes a new node, without the memo), so the digest lives and dies
    # with the tree it describes.
    fingerprint: str | None = None

    def children(self) -> tuple["Plan", ...]:
        return ()

    def walk(self):
        """Yield every node of the tree, post-order."""
        for child in self.children():
            yield from child.walk()
        yield self

    def base_tables(self) -> set[str]:
        """Names of every base table scanned anywhere below."""
        return {n.table for n in self.walk() if isinstance(n, Scan)}


@dataclass(eq=False)
class Scan(Plan):
    """Read a base table (optionally projecting columns at the reader)."""

    table: str
    columns: tuple[str, ...] | None = None

    def __repr__(self) -> str:
        cols = "*" if self.columns is None else ",".join(self.columns)
        return f"Scan({self.table}[{cols}])"


@dataclass(eq=False)
class Filter(Plan):
    """Keep rows where ``predicate`` is true."""

    child: Plan
    predicate: Expr

    def children(self):
        return (self.child,)

    def __repr__(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass(eq=False)
class Project(Plan):
    """Compute output columns ``name -> expr`` row-by-row."""

    child: Plan
    outputs: tuple[tuple[str, Expr], ...]

    def children(self):
        return (self.child,)

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.outputs]

    def __repr__(self) -> str:
        return f"Project({', '.join(self.names)})"


class JoinKind(Enum):
    INNER = "inner"
    SEMI = "semi"       # EXISTS: left rows with >=1 match
    ANTI = "anti"       # NOT EXISTS: left rows with no match
    LEFT_OUTER = "left_outer"


# The bool column a LEFT_OUTER join adds: True where the left row found
# a right-side partner.  Part of the join's output schema, so the
# operator that writes it and the type checker both take it from here.
MATCH_FLAG = "@matched"


@dataclass(eq=False)
class Join(Plan):
    """Equi-join on one key column per side.

    For ``LEFT_OUTER``, unmatched right-side columns surface as zeros
    (TPC-H's only outer join, Q13, immediately counts the non-NULL side,
    which the builder expresses with an explicit match flag).
    """

    left: Plan
    right: Plan
    left_key: str
    right_key: str
    kind: JoinKind = JoinKind.INNER
    # Extra non-equi residual applied to matched pairs (e.g. Q21's
    # l2.suppkey <> l1.suppkey) — evaluated over the joined row.
    residual: Expr | None = None

    def children(self):
        return (self.left, self.right)

    def __repr__(self) -> str:
        return (
            f"Join({self.kind.value}, {self.left_key} = {self.right_key})"
        )


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``name = func(expr)``."""

    name: str
    func: AggFunc
    expr: Expr | None = None  # None for COUNT(*)


@dataclass(eq=False)
class Aggregate(Plan):
    """Group by ``keys`` (possibly empty = single global group)."""

    child: Plan
    keys: tuple[str, ...]
    aggregates: tuple[AggSpec, ...]
    having: Expr | None = None

    def children(self):
        return (self.child,)

    def __repr__(self) -> str:
        aggs = ", ".join(
            f"{a.name}={a.func.value}" for a in self.aggregates
        )
        return f"Aggregate(keys={list(self.keys)}, aggs=[{aggs}])"


@dataclass(frozen=True)
class SortKey:
    column: str
    ascending: bool = True


@dataclass(eq=False)
class Sort(Plan):
    child: Plan
    keys: tuple[SortKey, ...]

    def children(self):
        return (self.child,)

    def __repr__(self) -> str:
        keys = ", ".join(
            f"{k.column}{'' if k.ascending else ' desc'}" for k in self.keys
        )
        return f"Sort({keys})"


@dataclass(eq=False)
class Limit(Plan):
    child: Plan
    count: int

    def children(self):
        return (self.child,)

    def __repr__(self) -> str:
        return f"Limit({self.count})"


@dataclass(eq=False)
class Distinct(Plan):
    """Distinct rows (TPC-H uses it only over small key sets)."""

    child: Plan

    def children(self):
        return (self.child,)

    def __repr__(self) -> str:
        return "Distinct()"


# ---------------------------------------------------------------------------
# Tree utilities (shared by the compiler and the static analyzer)
# ---------------------------------------------------------------------------


def node_exprs(node: Plan) -> tuple[Expr, ...]:
    """Every expression a plan node evaluates, in a stable order."""
    if isinstance(node, Filter):
        return (node.predicate,)
    if isinstance(node, Project):
        return tuple(expr for _, expr in node.outputs)
    if isinstance(node, Join):
        return (node.residual,) if node.residual is not None else ()
    if isinstance(node, Aggregate):
        exprs = [a.expr for a in node.aggregates if a.expr is not None]
        if node.having is not None:
            exprs.append(node.having)
        return tuple(exprs)
    return ()


def subquery_plans(expr: Expr) -> list[Plan]:
    """Plans of every :class:`ScalarSubquery` nested inside ``expr``."""
    plans: list[Plan] = []
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ScalarSubquery):
            plans.append(node.plan)
        stack.extend(node.children())
    return plans


def has_subquery(expr: Expr) -> bool:
    return bool(subquery_plans(expr))


def walk_with_subqueries(root: Plan) -> Iterator[Plan]:
    """Every node of ``root`` pre-order, each followed by its children
    and then by the scalar-subquery plans its expressions embed."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        # popped last-in first: children in order, then the subqueries
        for expr in reversed(node_exprs(node)):
            stack.extend(reversed(subquery_plans(expr)))
        stack.extend(reversed(node.children()))


def assign_node_ids(root: Plan, start: int = 0) -> int:
    """Number every node of ``root`` in :func:`walk_with_subqueries`
    order and return the next unused id.

    Idempotent: re-running renumbers deterministically, so diagnostics
    produced from the same tree always agree on loci.
    """
    counter = start
    for node in walk_with_subqueries(root):
        node.node_id = counter
        counter += 1
    return counter
