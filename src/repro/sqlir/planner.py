"""SQL-to-plan translation: a small System-R-style planner.

Turns a parsed :class:`~repro.sqlir.parser.SelectStatement` into the
logical plan IR both executors run:

1. resolve every column to its table through the catalog;
2. split the WHERE conjunction into per-table filters (pushed below the
   joins), equi-join edges, and cross-table residuals;
3. join the FROM tables along equi-join edges in a connectivity-driven
   order, attaching residuals as soon as both sides are present;
4. add projection / aggregation / HAVING / ORDER BY / LIMIT on top.

The output is exactly what the AQUOMAN compiler expects to see from
"the DBMS software" (paper Fig. 3's query-compiler box).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sqlir.expr import (
    BoolExpr,
    BoolOp,
    ColumnRef,
    Compare,
    CompareOp,
    Expr,
)
from repro.sqlir.parser import SelectStatement, parse_sql
from repro.sqlir.plan import (
    Aggregate,
    AggSpec,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
    SortKey,
)
from repro.storage.catalog import Catalog


class PlanningError(Exception):
    """The statement cannot be planned against this catalog."""


@dataclass
class _JoinEdge:
    left_table: str
    left_column: str
    right_table: str
    right_column: str


def plan_sql(sql: str, catalog: Catalog) -> Plan:
    """Parse and plan one SELECT statement against ``catalog``."""
    return plan_statement(parse_sql(sql), catalog)


def plan_statement(stmt: SelectStatement, catalog: Catalog) -> Plan:
    table_of = _column_resolver(stmt, catalog)

    # Validate every referenced column up front (clear errors beat a
    # KeyError deep inside execution).
    for item in stmt.items:
        for expr in (item.expr, item.aggregate_arg):
            if expr is not None:
                for name in expr.column_refs():
                    table_of(name)

    # -- split the WHERE conjunction ---------------------------------------
    per_table: dict[str, list[Expr]] = {t: [] for t, _ in stmt.tables}
    edges: list[_JoinEdge] = []
    residuals: list[Expr] = []

    for conjunct in _flatten_and(stmt.where):
        tables = {table_of(name) for name in conjunct.column_refs()}
        edge = _as_join_edge(conjunct, table_of)
        if edge is not None:
            edges.append(edge)
        elif len(tables) == 1:
            per_table[next(iter(tables))].append(conjunct)
        elif len(tables) == 0:
            residuals.append(conjunct)  # constant predicate
        else:
            residuals.append(conjunct)

    # -- per-table scan + pushed filters ---------------------------------------
    def build_base(table: str) -> Plan:
        needed = _columns_needed(stmt, table, table_of, edges)
        if not needed:
            # A pure COUNT(*) references no columns; scan the narrowest
            # one so the row count survives (a zero-column scan would
            # have no cardinality).
            narrowest = min(
                catalog.table(table).columns, key=lambda c: c.ctype.width
            )
            needed = {narrowest.name}
        plan: Plan = Scan(table, tuple(sorted(needed)))
        for predicate in per_table[table]:
            plan = Filter(plan, predicate)
        return plan

    order = [t for t, _ in stmt.tables]
    joined: dict[str, Plan] = {}
    current: Plan | None = None
    placed: set[str] = set()

    def place(table: str) -> None:
        nonlocal current
        base = build_base(table)
        if current is None:
            current = base
            placed.add(table)
            return
        edge = _edge_between(edges, placed, table)
        if edge is None:
            raise PlanningError(
                f"table {table!r} has no equi-join edge to "
                f"{sorted(placed)}; cross joins are not supported"
            )
        if edge.right_table == table:
            current = Join(
                current, base, edge.left_column, edge.right_column
            )
        else:
            current = Join(
                current, base, edge.right_column, edge.left_column
            )
        placed.add(table)
        edges.remove(edge)

    # Connectivity-driven placement in FROM order.
    pending = list(order)
    place(pending.pop(0))
    while pending:
        for i, table in enumerate(pending):
            if _edge_between(edges, placed, table) is not None:
                place(pending.pop(i))
                break
        else:
            place(pending.pop(0))  # raises with a clear message

    # Remaining edges between already-placed tables become residual
    # equality filters, as do genuine residual predicates.
    for edge in edges:
        residuals.append(
            Compare(
                CompareOp.EQ,
                ColumnRef(edge.left_column),
                ColumnRef(edge.right_column),
            )
        )
    for predicate in residuals:
        current = Filter(current, predicate)

    # -- projection / aggregation ------------------------------------------------
    has_aggregates = any(item.aggregate is not None for item in stmt.items)

    if has_aggregates or stmt.group_by:
        # Pre-project group keys and aggregate inputs.
        pre_outputs: list[tuple[str, Expr]] = []
        for key in stmt.group_by:
            pre_outputs.append((key, ColumnRef(key)))
        specs: list[AggSpec] = []
        for item in stmt.items:
            if item.aggregate is None:
                if item.alias not in stmt.group_by:
                    raise PlanningError(
                        f"non-aggregated output {item.alias!r} must be "
                        "a GROUP BY key"
                    )
                continue
            if item.aggregate_arg is None:
                specs.append(AggSpec(item.alias, item.aggregate, None))
            else:
                input_name = f"@agg_in_{item.alias}"
                pre_outputs.append((input_name, item.aggregate_arg))
                specs.append(
                    AggSpec(
                        item.alias,
                        item.aggregate,
                        ColumnRef(input_name),
                    )
                )
        if pre_outputs:
            current = Project(current, tuple(pre_outputs))
        # else: a bare COUNT(*) aggregates the unprojected input (an
        # empty projection would have zero columns and thus zero rows).
        current = Aggregate(
            current, tuple(stmt.group_by), tuple(specs), stmt.having
        )
        # Order the output columns as written.
        current = Project(
            current,
            tuple(
                (item.alias, ColumnRef(item.alias)) for item in stmt.items
            ),
        )
    else:
        current = Project(
            current,
            tuple(
                (item.alias, item.expr) for item in stmt.items
            ),
        )

    if stmt.order_by:
        current = Sort(
            current,
            tuple(
                SortKey(item.column, item.ascending)
                for item in stmt.order_by
            ),
        )
    if stmt.limit is not None:
        current = Limit(current, stmt.limit)
    return current


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _flatten_and(expr: Expr | None) -> list[Expr]:
    """The conjuncts of ``expr``, left to right.  A WHERE of n ANDed
    terms parses to an n-deep tree, so the walk keeps its own stack."""
    out: list[Expr] = []
    stack: list[Expr] = [] if expr is None else [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BoolExpr) and node.op is BoolOp.AND:
            stack.extend(reversed(node.args))
        else:
            out.append(node)
    return out


def _column_resolver(stmt: SelectStatement, catalog: Catalog):
    """name -> owning table, restricted to the statement's FROM list."""
    tables = [t for t, _ in stmt.tables]
    owners: dict[str, str] = {}
    for table_name in tables:
        try:
            table = catalog.table(table_name)
        except KeyError as exc:
            raise PlanningError(exc.args[0]) from None
        for column in table.column_names:
            if column in owners:
                raise PlanningError(
                    f"column {column!r} is ambiguous between "
                    f"{owners[column]!r} and {table_name!r}"
                )
            owners[column] = table_name

    def resolve(name: str) -> str:
        owner = owners.get(name)
        if owner is None:
            raise PlanningError(
                f"column {name!r} not found in {tables}"
            )
        return owner

    return resolve


def _as_join_edge(expr: Expr, table_of) -> _JoinEdge | None:
    if not isinstance(expr, Compare) or expr.op is not CompareOp.EQ:
        return None
    if not (
        isinstance(expr.left, ColumnRef) and isinstance(expr.right,
                                                        ColumnRef)
    ):
        return None
    lt = table_of(expr.left.name)
    rt = table_of(expr.right.name)
    if lt == rt:
        return None
    return _JoinEdge(lt, expr.left.name, rt, expr.right.name)


def _edge_between(
    edges: list[_JoinEdge], placed: set[str], table: str
) -> _JoinEdge | None:
    for edge in edges:
        if edge.left_table in placed and edge.right_table == table:
            return edge
        if edge.right_table in placed and edge.left_table == table:
            return edge
    return None


def _columns_needed(
    stmt: SelectStatement, table: str, table_of, edges
) -> set[str]:
    """Columns of ``table`` referenced anywhere in the statement."""
    referenced: set[str] = set()
    for item in stmt.items:
        if item.expr is not None:
            referenced |= item.expr.column_refs()
        if item.aggregate_arg is not None:
            referenced |= item.aggregate_arg.column_refs()
    if stmt.where is not None:
        referenced |= stmt.where.column_refs()
    if stmt.having is not None:
        referenced |= stmt.having.column_refs()
    referenced |= set(stmt.group_by)
    for edge in edges:
        referenced.add(edge.left_column)
        referenced.add(edge.right_column)

    mine = set()
    for name in referenced:
        try:
            if table_of(name) == table:
                mine.add(name)
        except PlanningError:
            continue  # output aliases referenced in ORDER BY etc.
    return mine
