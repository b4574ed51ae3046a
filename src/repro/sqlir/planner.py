"""SQL-to-plan translation: the host DBMS's query compiler.

Turns a parsed :class:`~repro.sqlir.parser.SelectStatement` into the
logical plan IR every executor runs — what paper Fig. 3's query-compiler
box hands AQUOMAN.  Columns resolve through one resolver, against a
:class:`~repro.storage.catalog.Catalog` or any ``{table: TableSchema}``
mapping (``repro.tpch`` plans its 22 texts against the spec's schema,
with no catalog at hand).

Plan shape follows three rules, and nothing query-specific:

1. **One Filter per FROM binding.**  A binding's single-table
   conjuncts become one Filter right above its scan, as one flat n-ary
   AND in WHERE order; cross-table conjuncts become one Filter above
   the joins.  An OR whose branches share conjuncts is factored (the
   shared ones push down), and a column that every branch compares to a
   literal pushes down as an IN-list prefilter.
2. **Dimension subtrees on the build side.**  A binding *references*
   another when a WHERE equality ties one of its columns to the other's
   primary key.  The binding no other references is the probe side;
   each binding it reaches joins as its own subtree (itself plus what
   it references), in FROM order.  A second equality between the same
   two bindings makes a composite key ``a * 10^8 + b`` (TPC-H's
   (partkey, suppkey)); an equality closing a cycle is the join's
   residual.
3. **Subqueries become joins.**  ``[NOT] EXISTS`` and ``[NOT] IN
   (SELECT …)`` are SEMI/ANTI joins; a correlated equality is the key
   and other correlated predicates the residual.  A correlated scalar
   subquery is decorrelated the way MonetDB's optimiser does it: the
   subquery is grouped by its correlation columns and joined back on
   them, and the comparison filters the joined rows.  An uncorrelated
   scalar is a :class:`~repro.sqlir.expr.ScalarSubquery`.  An IN
   subquery filters like a single-table conjunct: its join sits right
   above its column's binding's Filter.  EXISTS and correlated scalars
   join above the FROM joins, in WHERE order.

``LEFT OUTER JOIN … ON`` keeps every left row; ``count(col)`` of its
right side is the sum of the join's :data:`~repro.sqlir.plan.MATCH_FLAG`.
Aggregates may sit inside expressions (``100 * sum(a) / sum(b)``):
their inputs are projected once each, below the Aggregate, and the
expression is a Project above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from repro.sqlir.expr import (
    AggFunc,
    BoolExpr,
    BoolOp,
    ColumnRef,
    Compare,
    CompareOp,
    Expr,
    InList,
    Literal,
    ScalarSubquery,
)
from repro.sqlir.parser import (
    AggCall,
    FromItem,
    QualifiedRef,
    SelectStatement,
    Subquery,
    parse_sql,
)
from repro.sqlir.plan import (
    MATCH_FLAG,
    Aggregate,
    AggSpec,
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
from repro.storage.catalog import Catalog
from repro.storage.types import Kind

# A two-column join key (a, b) travels as the one integer a * KEY_COMBINE
# + b, the surrogate MonetDB builds too; b (a suppkey) is < 10^8 at any
# scale factor this repo simulates.
KEY_COMBINE = 100_000_000

_SAME: Mapping[str, str] = MappingProxyType({})   # no renaming


class PlanningError(Exception):
    """The statement cannot be planned against this schema."""


@dataclass(frozen=True)
class TableSchema:
    """What planning needs of one table: its columns in order, with the
    byte width of each (a bare COUNT(*) scans the narrowest), and its
    primary key."""

    columns: dict[str, int]
    primary_key: str | None = None


Schema = Catalog | Mapping[str, TableSchema]


def plan_sql(sql: str, schema: Schema) -> Plan:
    """Parse and plan one statement against ``schema``."""
    return plan_statement(parse_sql(sql), schema)


def plan_statement(stmt: SelectStatement, schema: Schema) -> Plan:
    if isinstance(schema, Catalog):
        lookup = _catalog_table(schema)
    else:
        lookup = _mapping_table(schema)
    planner = _Planner(lookup)
    return planner.select(planner.bind(stmt, None)).plan


def _catalog_table(catalog: Catalog) -> Callable[[str], TableSchema]:
    def lookup(name: str) -> TableSchema:
        try:
            table = catalog.table(name)
        except KeyError as exc:
            raise PlanningError(exc.args[0]) from None
        return TableSchema(
            {c.name: c.ctype.width for c in table.columns},
            catalog.primary_key(name),
        )

    return lookup


def _mapping_table(
    schema: Mapping[str, TableSchema]
) -> Callable[[str], TableSchema]:
    def lookup(name: str) -> TableSchema:
        try:
            return schema[name]
        except KeyError:
            raise PlanningError(
                f"no table {name!r}; schema has {sorted(schema)}"
            ) from None

    return lookup


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def _flatten_and(expr: Expr | None) -> list[Expr]:
    """The conjuncts of ``expr``, left to right, nested ANDs included
    (a BETWEEN is two); iterative, so depth costs no stack."""
    out: list[Expr] = []
    stack: list[Expr] = [] if expr is None else [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BoolExpr) and node.op is BoolOp.AND:
            stack.extend(reversed(node.args))
        else:
            out.append(node)
    return out


def _conjunction(conjuncts: list[Expr], op: BoolOp = BoolOp.AND) -> Expr:
    """One flat n-ary AND (or OR) of ``conjuncts``; a single term as is."""
    return conjuncts[0] if len(conjuncts) == 1 else BoolExpr(
        op, tuple(conjuncts)
    )


def _map(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """``expr`` with every node ``fn`` answers replaced by that answer;
    ``fn`` returns None to descend instead.  Untouched subtrees are
    shared, not copied."""
    out = fn(expr)
    if out is not None:
        return out
    if not expr.children():
        return expr
    changes = {}
    for f in fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            new = _map(value, fn)
        elif isinstance(value, tuple) and value and all(
            isinstance(v, Expr) for v in value
        ):
            new = tuple(_map(v, fn) for v in value)
            if all(a is b for a, b in zip(new, value)):
                new = value
        else:
            continue
        if new is not value:
            changes[f.name] = new
    return replace(expr, **changes) if changes else expr


def _nodes(expr: Expr) -> list[Expr]:
    """Every node of ``expr``, breadth first (subquery bodies
    excluded)."""
    out = [expr]
    for node in out:          # the list grows while it is read
        out.extend(node.children())
    return out


def _same(a: Expr, b: Expr) -> bool:
    """Structural equality (``==`` on expressions builds a Compare)."""
    return repr(a) == repr(b)


def _as_in_list(branches: list[Expr]) -> Expr | None:
    """``c = 'x' OR c = 'y'`` as ``c IN ('x', 'y')``; None if the
    branches are not all one column against a literal."""
    options = []
    for term in branches:
        if not (
            isinstance(term, Compare) and term.op is CompareOp.EQ
            and isinstance(term.right, Literal)
            and _same(term.left, branches[0].left)
        ):
            return None
        options.append(term.right.raw)
    if branches[0].right.kind is not Kind.STR:
        return None
    return InList(branches[0].left, tuple(options))


# ---------------------------------------------------------------------------
# Binding: FROM items, name resolution, subquery scopes
# ---------------------------------------------------------------------------
# Bindings are keyed by parser nodes, which hash by identity; every keyed
# node lives in the statement being planned.


@dataclass(eq=False)
class _Source:
    """One FROM binding and the plan names of its columns."""

    alias: str
    table: str | None = None
    schema: TableSchema | None = None
    derived: "_Built | None" = None
    outer_on: Expr | None = None
    columns: dict[str, str] = field(default_factory=dict)  # sql -> plan
    key: str | None = None          # a unique column, by sql name
    needed: set[str] = field(default_factory=set)          # sql names
    renamed: bool = False

    def below(self) -> dict[str, str]:
        """plan name -> the name it has below the alias renaming."""
        if not self.renamed:
            return {}
        return {plan: sql for sql, plan in self.columns.items()}


@dataclass(eq=False)
class _Scope:
    """One SELECT's bindings, and what planning learns about it."""

    stmt: SelectStatement
    parent: "_Scope | None"
    sources: list[_Source] = field(default_factory=list)
    bound: dict = field(default_factory=dict)      # ref node -> _Binding
    subscopes: dict = field(default_factory=dict)  # Subquery -> _Scope
    correlated: bool = False
    aggregated: bool = False      # an aggregate in SELECT or HAVING
    # False once a binding needs renaming in the plan (a qualified or
    # renamed column, a subquery): until then expressions plan as is.
    verbatim: bool = True
    probe: _Source | None = None
    correlations: list = field(default_factory=list)
    correlation_refs: frozenset = frozenset()
    facts: dict = field(default_factory=dict)   # WHERE conjunct -> _facts

    def visible(self) -> set[str]:
        """Plan names of every binding here and in enclosing scopes."""
        names: set[str] = set()
        scope = self
        while scope is not None:
            for source in scope.sources:
                names.update(source.columns.values())
            scope = scope.parent
        return names


class _Binding(NamedTuple):
    """Where a column reference resolved: scope, binding, plan name."""

    scope: _Scope
    source: _Source
    name: str                       # plan name


@dataclass
class _Built:
    plan: Plan
    columns: list[str]


@dataclass(eq=False)
class _Step:
    """A WHERE (or ON) conjunct waiting for its place in the plan."""

    expr: Expr
    kind: str       # filter | edge | residual | subquery | correlation
    sources: frozenset = frozenset()
    refs: frozenset = frozenset()   # plan names it reads in this scope
    ends: dict = field(default_factory=dict)  # edge: source -> sql name
    done: bool = False


class _Planner:
    def __init__(self, lookup: Callable[[str], TableSchema]):
        self.lookup = lookup
        self.fresh = 0

    def _fresh(self, stem: str) -> str:
        self.fresh += 1
        return f"@sq{self.fresh}.{stem}"

    # -- binding --------------------------------------------------------------

    def bind(self, stmt: SelectStatement, parent: _Scope | None) -> _Scope:
        scope = _Scope(stmt, parent)
        tables: set[str] = set()
        aliases: set[str] = set()
        taken: set[str] = set()
        for item in stmt.tables:
            if item.alias in aliases:
                raise PlanningError(
                    f"table alias {item.alias!r} is ambiguous"
                )
            aliases.add(item.alias)
            source = self._source(item)
            # A table's second binding (a self-join), or a derived column
            # shadowing an earlier one, reads alias-qualified.
            source.renamed = (
                source.table in tables
                or not taken.isdisjoint(source.columns.values())
            )
            if source.renamed:
                source.columns = {
                    c: f"{item.alias}.{c}" for c in source.columns
                }
            tables.add(source.table)
            taken.update(source.columns.values())
            scope.sources.append(source)
        for item in stmt.items:
            self._bind_expr(scope, item.expr, aggregates=True)
        if stmt.having is not None:
            self._bind_expr(scope, stmt.having, aggregates=True)
        for conjunct in _flatten_and(stmt.where):
            nodes = self._bind_expr(scope, conjunct, aggregates=False)
            scope.facts[conjunct] = _facts(scope, nodes)
        for expr in [s.outer_on for s in stmt.tables] + stmt.group_by:
            if expr is not None:
                self._bind_expr(scope, expr, aggregates=False)
        return scope

    def _source(self, item: FromItem) -> _Source:
        if item.query is None:
            schema = self.lookup(item.table)
            return _Source(
                item.alias, item.table, schema, outer_on=item.outer_on,
                columns=dict(zip(schema.columns, schema.columns)),
                key=schema.primary_key,
            )
        built = self.select(self.bind(item.query, None))
        # A derived table grouped by one column is unique on it.
        groups = item.query.group_by
        key = next((
            i.alias for i in item.query.items
            if len(groups) == 1 and isinstance(i.expr, type(groups[0]))
            and _same(i.expr, groups[0])
        ), None)
        return _Source(
            item.alias, derived=built, outer_on=item.outer_on,
            columns={c: c for c in built.columns}, key=key,
        )

    def _bind_expr(self, scope: _Scope, expr: Expr,
                   aggregates: bool) -> list[Expr]:
        """Bind every column and subquery of ``expr``; its nodes."""
        nodes = _nodes(expr)
        for node in nodes:
            if isinstance(node, (ColumnRef, QualifiedRef)):
                self._resolve(scope, node)
            elif isinstance(node, Subquery):
                scope.subscopes[node] = self.bind(node.query, scope)
                scope.verbatim = False
            elif isinstance(node, AggCall):
                if not aggregates:
                    raise PlanningError(
                        "aggregates belong in SELECT and HAVING"
                    )
                scope.aggregated = True
        return nodes

    def _resolve(self, scope: _Scope, ref: Expr) -> None:
        """Bind ``ref`` in ``scope`` or the nearest enclosing scope."""
        name = ref.name
        qualifier = ref.qualifier if isinstance(ref, QualifiedRef) else None
        here = scope
        while here is not None:
            matches = [
                s for s in here.sources if name in s.columns
                and (qualifier is None or s.alias == qualifier)
            ]
            if len(matches) > 1:
                raise PlanningError(
                    f"column {name!r} is ambiguous between "
                    f"{[s.alias for s in matches]}"
                )
            if matches:
                source = matches[0]
                source.needed.add(name)
                plan_name = source.columns[name]
                scope.bound[ref] = _Binding(here, source, plan_name)
                if plan_name != name or qualifier is not None:
                    scope.verbatim = False
                inner = scope
                while inner is not here:   # every scope it reaches past
                    inner.correlated = True
                    inner = inner.parent
                return
            here = here.parent
        names = [s.alias for s in scope.sources]
        raise PlanningError(f"column {name!r} not found in {names}")

    # -- rewriting ------------------------------------------------------------

    def _rewrite(self, scope: _Scope, expr: Expr,
                 rename: Mapping[str, str] = _SAME) -> Expr:
        """``expr`` over plan names (mapped through ``rename``), with
        uncorrelated scalar subqueries planned."""
        if scope.verbatim and not rename:
            return expr

        def fn(node: Expr) -> Expr | None:
            binding = scope.bound.get(node) if isinstance(
                node, (ColumnRef, QualifiedRef)) else None
            if binding is not None:
                name = rename.get(binding.name, binding.name)
                if isinstance(node, ColumnRef) and node.name == name:
                    return node
                return ColumnRef(name)
            if isinstance(node, Subquery):
                inner = scope.subscopes[node]
                if node.kind != "scalar" or inner.correlated:
                    raise PlanningError(
                        "a correlated or EXISTS/IN subquery must be a "
                        "WHERE conjunct of its own"
                    )
                _one_value(inner)
                return ScalarSubquery(self.select(inner).plan)
            return None

        return _map(expr, fn)

    @staticmethod
    def _local(scope: _Scope, expr: Expr):
        """:func:`_facts` of a bound expression."""
        return scope.facts.get(expr) or _facts(scope, _nodes(expr))

    # -- one SELECT -----------------------------------------------------------

    def select(self, scope: _Scope) -> _Built:
        """Plan a bound, uncorrelated statement."""
        if scope.correlated:
            raise PlanningError("a derived table cannot be correlated")
        return self.output(scope, self.body(scope))

    def body(self, scope: _Scope) -> _Built:
        """FROM and WHERE: the join tree, its filters and subquery
        joins.  Correlated conjuncts are left in ``scope.correlations``
        for the enclosing query's join."""
        steps = self._classify(scope)
        scope.probe = self._probe(scope, steps)
        placed = {scope.probe}
        built = self._base(scope, scope.probe, steps)
        while len(placed) < len(scope.sources):
            source = self._next_source(scope, steps, placed)
            claimed = placed | {source}
            sub = self._subtree(scope, source, steps, claimed)
            built = self._join(scope, steps, built, placed, sub,
                               claimed - placed)
            placed = claimed
        residuals = [s for s in steps if s.kind == "residual"]
        if residuals:
            for s in residuals:
                s.done = True
            built = _filter(built, [self._rewrite(scope, s.expr)
                                    for s in residuals])
        for step in steps:
            if step.kind == "subquery" and not step.done:
                built = self._subquery_join(scope, steps, built, step)
        return built

    # -- WHERE ----------------------------------------------------------------

    def _classify(self, scope: _Scope) -> list[_Step]:
        steps: list[_Step] = []
        nullable = {s for s in scope.sources if s.outer_on is not None}
        for term in _flatten_and(scope.stmt.where):
            for conjunct in self._factor_or(scope, term):
                step = self._step(scope, conjunct)
                if nullable and not nullable.isdisjoint(step.sources):
                    raise PlanningError(
                        "WHERE on the nullable side of an outer join is "
                        "not supported; put it in the ON clause"
                    )
                steps.append(step)
        for source in scope.sources:
            for conjunct in _flatten_and(source.outer_on):
                step = self._step(scope, conjunct)
                if not (step.kind == "edge" and source in step.sources
                        or step.kind == "filter"
                        and step.sources == {source}):
                    raise PlanningError(
                        "an ON clause holds equalities to the joined "
                        "table and conditions on it only"
                    )
                steps.append(step)
        correlations = [s for s in steps if s.kind == "correlation"]
        scope.correlations = correlations
        scope.correlation_refs = frozenset().union(
            *(s.refs for s in correlations)
        )
        return [s for s in steps if s.kind != "correlation"]

    def _step(self, scope: _Scope, conjunct: Expr) -> _Step:
        sources, refs, outer = self._local(scope, conjunct)
        if _joins_a_subquery(scope, conjunct):
            return _Step(conjunct, "subquery", sources, refs)
        if outer:
            return _Step(conjunct, "correlation", sources, refs)
        if len(sources) == 1:
            return _Step(conjunct, "filter", sources, refs)
        sides = (conjunct.left, conjunct.right) if isinstance(
            conjunct, Compare) and conjunct.op is CompareOp.EQ else ()
        if len(sources) == 2 and sides and all(
            s in scope.bound for s in sides
        ):
            ends = {scope.bound[s].source: s.name for s in sides}
            return _Step(conjunct, "edge", sources, refs, ends)
        return _Step(conjunct, "residual", sources, refs)

    def _factor_or(self, scope: _Scope, term: Expr) -> list[Expr]:
        """An OR conjunct as its shared conjuncts, the IN-list
        prefilters it implies, and the OR of what is left."""
        if not (isinstance(term, BoolExpr) and term.op is BoolOp.OR):
            return [term]
        branches = [_flatten_and(b) for b in term.args]
        shared = [
            c for c in branches[0]
            if all(any(_same(c, d) for d in b) for b in branches[1:])
        ]
        rest = [
            [c for c in b if not any(_same(c, s) for s in shared)]
            for b in branches
        ]
        if not all(rest):
            return shared       # a branch is the shared part alone
        out = list(shared)
        for c in rest[0]:
            if not isinstance(c, Compare):
                continue
            picked = [c] + [
                next((d for d in b if isinstance(d, Compare)
                      and _same(d.left, c.left)), None)
                for b in rest[1:]
            ]
            implied = None if any(p is None for p in picked) else (
                _as_in_list(picked)
            )
            if implied is not None:
                self._bind_expr(scope, implied, aggregates=False)
                out.append(implied)
        out.append(_conjunction([_conjunction(b) for b in rest],
                                BoolOp.OR))
        return out

    # -- the join tree --------------------------------------------------------

    @staticmethod
    def _references(edge: _Step, a: _Source, b: _Source) -> bool:
        """Does ``edge`` tie a column of ``a`` to ``b``'s unique key?"""
        ends = edge.ends
        return (
            edge.kind == "edge" and a in ends and b in ends
            and ends[b] == b.key and ends[a] != a.key
        )

    def _probe(self, scope: _Scope, steps: list[_Step]) -> _Source:
        """The first binding, in FROM order, that no other references
        and that no outer join makes nullable."""
        for source in scope.sources:
            if source.outer_on is None and not any(
                self._references(e, other, source)
                for e in steps for other in e.ends
                if other is not source and other.outer_on is None
            ):
                return source
        return scope.sources[0]

    def _next_source(self, scope, steps, placed: set) -> _Source:
        for source in scope.sources:
            if source not in placed and any(
                s.kind == "edge" and not s.done and source in s.sources
                and s.sources - {source} <= placed
                for s in steps
            ):
                return source
        missing = next(s for s in scope.sources if s not in placed)
        joined = [s.alias for s in scope.sources if s in placed]
        raise PlanningError(
            f"table {missing.alias!r} has no equi-join edge to {joined}; "
            "cross joins are not supported"
        )

    def _subtree(self, scope, source: _Source, steps, claimed: set):
        """``source`` joined with every binding it references, each a
        subtree of its own, in FROM order.  Grows ``claimed``."""
        built = self._base(scope, source, steps)
        for other in scope.sources:
            if other in claimed or other.outer_on is not None:
                continue
            if any(not e.done and self._references(e, source, other)
                   for e in steps):
                before = set(claimed)
                claimed.add(other)
                sub = self._subtree(scope, other, steps, claimed)
                built = self._join(scope, steps, built, before, sub,
                                   claimed - before)
        return built

    def _base(self, scope, source: _Source, steps) -> _Built:
        """Scan (or derived plan) → its one Filter → its pushed subquery
        joins → alias renaming."""
        below = source.below()
        if source.derived is not None:
            built = source.derived
        else:
            widths = source.schema.columns
            # A bare COUNT(*) reads no column; scan the narrowest so the
            # row count survives.
            names = [c for c in widths if c in source.needed] or [
                min(widths, key=widths.get)
            ]
            built = _Built(Scan(source.table, tuple(names)), names)
        mine = [s for s in steps if s.kind == "filter"
                and s.sources == {source}]
        for s in mine:
            s.done = True
        if mine:
            built = _filter(built, [self._rewrite(scope, s.expr, below)
                                    for s in mine])
        if source.outer_on is not None:
            # The nullable side of an outer join carries no column only
            # its own ON conditions read.
            live = self._live(scope, steps)
            kept = [c for c in built.columns
                    if source.columns.get(c, c) in live]
            if len(kept) < len(built.columns):
                built = _project(built, [(c, ColumnRef(c)) for c in kept])
        for step in steps:
            if (step.kind == "subquery" and not step.done
                    and isinstance(step.expr, Subquery)
                    and step.expr.kind == "in"
                    and step.sources == {source}):
                built = self._subquery_join(scope, steps, built, step,
                                            below)
        if source.renamed:
            built = _project(built, [
                (source.columns.get(c, c), ColumnRef(c))
                for c in built.columns
            ])
        return built

    def _live(self, scope: _Scope, steps, also: set = frozenset()):
        """Plan names still read above this point: by pending steps, the
        select list, HAVING, GROUP BY and the enclosing query."""
        live = set(also) | scope.correlation_refs
        for s in steps:
            if not s.done:
                live |= s.refs
        stmt = scope.stmt
        for expr in [i.expr for i in stmt.items] + [
            e for e in (stmt.having,) if e is not None
        ] + stmt.group_by:
            live |= self._local(scope, expr)[1]
        return live

    def _join(self, scope, steps, left: _Built, left_sources: set,
              right: _Built, right_sources: set) -> _Built:
        """Join two subtrees on the equalities between them: a reference
        edge is the key, a second edge between the same two bindings
        makes a composite key, the rest is the residual."""
        edges = [
            s for s in steps if s.kind == "edge" and not s.done
            and s.sources & left_sources and s.sources & right_sources
        ]
        edges.sort(key=lambda e: not any(
            self._references(e, a, b)
            for a in e.ends for b in e.ends
        ))
        for e in edges:
            e.done = True
        pair = [e for e in edges if e.sources == edges[0].sources][:2]
        residual = [self._rewrite(scope, e.expr) for e in edges
                    if e not in pair]

        def ends(edge: _Step) -> tuple[Expr, Expr]:
            a, b = (self._rewrite(scope, x)
                    for x in (edge.expr.left, edge.expr.right))
            return (b, a) if a.name in right.columns else (a, b)

        if len(pair) == 2:
            (l1, r1), (l2, r2) = ends(pair[0]), ends(pair[1])
            live = self._live(scope, steps, set().union(
                *(r.column_refs() for r in residual)))
            lkey, rkey = self._fresh("key"), self._fresh("key")
            left = _project(left, [
                (c, ColumnRef(c)) for c in left.columns if c in live
            ] + [(lkey, l1 * KEY_COMBINE + l2)])
            right = _project(right, [(rkey, r1 * KEY_COMBINE + r2)] + [
                (c, ColumnRef(c)) for c in right.columns if c in live
            ])
        else:
            lref, rref = ends(pair[0])
            lkey, rkey = lref.name, rref.name
        columns = left.columns + right.columns
        kind = JoinKind.INNER
        if any(s in right_sources and s.outer_on is not None
               for s in scope.sources):
            kind = JoinKind.LEFT_OUTER
            columns = columns + [MATCH_FLAG]
        return _Built(
            Join(left.plan, right.plan, lkey, rkey, kind,
                 _conjunction(residual) if residual else None),
            columns,
        )

    # -- subqueries -----------------------------------------------------------

    def _subquery_join(self, scope, steps, built: _Built, step: _Step,
                       rename: Mapping[str, str] = _SAME) -> _Built:
        step.done = True
        if isinstance(step.expr, Subquery):
            return self._semi_join(scope, built, step.expr, rename)
        return self._decorrelate(scope, steps, built, step.expr, rename)

    def _semi_join(self, scope, built: _Built, node: Subquery,
                   rename) -> _Built:
        """[NOT] EXISTS / [NOT] IN as a SEMI / ANTI join: a correlated
        equality (or the IN column) is the key, the other correlated
        predicates the residual."""
        inner = scope.subscopes[node]
        body = self.body(inner)
        visible = scope.visible()
        keys: list[tuple[str, str]] = []      # (outer, inner) plan names
        if node.kind == "in":
            body, name = self._in_column(inner, body, visible)
            operand = self._rewrite(scope, node.operand, rename)
            if not isinstance(operand, ColumnRef):
                raise PlanningError("IN (SELECT …) needs a column on "
                                    "its left")
            keys.append((operand.name, name))
        residual, read = [], set()
        for corr in inner.correlations:
            read |= corr.refs
            pair = _correlation_pair(inner, corr.expr)
            if pair is not None and not keys:
                keys.append((rename.get(pair[1], pair[1]), pair[0]))
            else:
                residual.append(corr.expr)
        if not keys:
            raise PlanningError("EXISTS needs a correlated equality")
        # Inner columns the join reads travel alias-qualified when they
        # clash with the outer query's names.
        fresh = {}
        if not read.isdisjoint(visible):
            fresh = {
                plan: f"{s.alias}.{plan}" for s in inner.sources
                for plan in s.columns.values() if plan in read
            }
            body = _project(body, [(fresh[n], ColumnRef(n))
                                   for n in body.columns if n in fresh])
        outer_key, inner_key = keys[0]
        predicate = None
        if residual:
            predicate = _conjunction([
                _correlated(inner, c, fresh, rename) for c in residual
            ])
        kind = JoinKind.ANTI if node.negated else JoinKind.SEMI
        return _Built(
            Join(built.plan, body.plan, outer_key,
                 fresh.get(inner_key, inner_key), kind, predicate),
            built.columns,
        )

    def _in_column(self, inner: _Scope, body: _Built, visible: set):
        """The subquery's one output column, renamed if it clashes."""
        if len(inner.stmt.items) != 1:
            raise PlanningError("IN (SELECT …) must select one column")
        if inner.stmt.group_by or inner.aggregated:
            body = self.output(inner, body)
            name = body.columns[0]
        else:
            item = self._rewrite(inner, inner.stmt.items[0].expr)
            if isinstance(item, ColumnRef) and item.name not in visible:
                return body, item.name
            body = _project(body, [(item.name if isinstance(
                item, ColumnRef) else "@in", item)])
            name = body.columns[0]
        if name in visible:
            fresh = self._fresh(name)
            body = _project(body, [(fresh, ColumnRef(name))])
            name = fresh
        return body, name

    def _decorrelate(self, scope, steps, built: _Built, compare: Compare,
                     rename) -> _Built:
        """``x op (correlated scalar subquery)``: the subquery grouped
        by its correlation columns, joined back on them, then a Filter
        with the comparison."""
        on_right = isinstance(compare.right, Subquery)
        node, other = (compare.right, compare.left) if on_right else (
            compare.left, compare.right)
        inner = scope.subscopes[node]
        _one_value(inner)
        body = self.body(inner)
        pairs = [_correlation_pair(inner, c.expr)
                 for c in inner.correlations]
        if None in pairs or not 1 <= len(pairs) <= 2:
            raise PlanningError(
                "a correlated scalar subquery correlates by one or two "
                "equalities"
            )
        inner_cols = [ColumnRef(i) for i, _ in pairs]
        outer_cols = [ColumnRef(rename.get(o, o)) for _, o in pairs]
        if len(pairs) == 2:
            inner_key = inner_cols[0] * KEY_COMBINE + inner_cols[1]
            outer_key = outer_cols[0] * KEY_COMBINE + outer_cols[1]
        else:
            inner_key, outer_key = inner_cols[0], outer_cols[0]
        grouped = self.output(inner, body, [inner_key])
        key, value = self._fresh("key"), self._fresh("value")
        grouped = _project(grouped, [
            (key, ColumnRef(grouped.columns[0])),
            (value, ColumnRef(grouped.columns[1])),
        ])
        other = self._rewrite(scope, other, rename)
        if isinstance(outer_key, ColumnRef):
            left_key = outer_key.name
        else:
            left_key = self._fresh("key")
            live = self._live(scope, steps, other.column_refs())
            built = _project(built, [
                (c, ColumnRef(c)) for c in built.columns if c in live
            ] + [(left_key, outer_key)])
        joined = Join(built.plan, grouped.plan, left_key, key)
        value_ref = ColumnRef(value)
        predicate = (Compare(compare.op, other, value_ref) if on_right
                     else Compare(compare.op, value_ref, other))
        return _Built(Filter(joined, predicate),
                      built.columns + grouped.columns)

    # -- output: aggregation, projection, order -------------------------------

    def output(self, scope: _Scope, body: _Built,
               extra_keys: list[Expr] = ()) -> _Built:
        """Aggregate (grouped by ``extra_keys`` first, then GROUP BY),
        the select list, ORDER BY and LIMIT over ``body``."""
        stmt = scope.stmt
        if not stmt.items:
            raise PlanningError("SELECT * is supported inside EXISTS only")
        items = [(i.alias, self._rewrite(scope, i.expr))
                 for i in stmt.items]
        if stmt.group_by or extra_keys or scope.aggregated:
            built, items = self._aggregate(scope, body, items, extra_keys)
        else:
            built = body
        if [n for n, _ in items] != built.columns or any(
            not isinstance(e, ColumnRef) or e.name != n for n, e in items
        ):
            built = _project(built, items)
        if stmt.order_by:
            built = _Built(Sort(built.plan, tuple(
                SortKey(o.column, o.ascending) for o in stmt.order_by
            )), built.columns)
        if stmt.limit is not None:
            built = _Built(Limit(built.plan, stmt.limit), built.columns)
        return built

    def _aggregate(self, scope, body: _Built, items, extra_keys):
        """Aggregate over ``body`` — behind a Project only when an input
        is computed or a key renamed — and the items over its output."""
        stmt = scope.stmt
        keys: list[tuple[str, Expr]] = [
            (e.name if isinstance(e, ColumnRef) else self._fresh("key"), e)
            for e in extra_keys
        ]
        for group in stmt.group_by:
            ref = self._rewrite(scope, group)
            alias = next((n for n, e in items if isinstance(e, ColumnRef)
                          and e.name == ref.name), ref.name)
            keys.append((alias, ref))
        nullable = {
            plan for s in scope.sources if s.outer_on is not None
            for plan in s.columns.values()
        }
        inputs: list[tuple[str, Expr]] = []
        specs: list[AggSpec] = []
        # Each input is projected once: a column found by its name, a
        # computed expression by its text.
        projected = {_signature(e): n for n, e in keys}
        # An aggregate that is not a select item of its own (inside an
        # item's expression, or in HAVING) is found by its text.
        named: dict[str, str] = {}

        def input_name(expr: Expr) -> str:
            signature = _signature(expr)
            if signature not in projected:
                projected[signature] = expr.name if isinstance(
                    expr, ColumnRef) else f"@in{len(inputs)}"
                inputs.append((projected[signature], expr))
            return projected[signature]

        def aggregate(node: AggCall, alias: str | None = None) -> Expr:
            signature = None
            if alias is None or stmt.having is not None:
                signature = repr(node)
                if signature in named:
                    return ColumnRef(named[signature])
            name = alias or f"@agg{len(specs)}"
            func, arg = node.func, node.arg
            if (func is AggFunc.COUNT and isinstance(arg, ColumnRef)
                    and arg.name in nullable):
                func, arg = AggFunc.SUM, ColumnRef(MATCH_FLAG)
            if arg is not None:
                column = input_name(arg)
                if not (isinstance(arg, ColumnRef) and arg.name == column):
                    arg = ColumnRef(column)
            specs.append(AggSpec(name, func, arg))
            if signature is not None:
                named[signature] = name
            return ColumnRef(name)

        by_source = {e.name: n for n, e in keys if isinstance(e, ColumnRef)}

        def over_output(node: Expr) -> Expr | None:
            """An item or HAVING node over the Aggregate's output."""
            if isinstance(node, AggCall):
                return aggregate(node)
            if not isinstance(node, ColumnRef):
                return None
            if node.name not in by_source:
                raise PlanningError(
                    f"non-aggregated output {node.name!r} must be a "
                    "GROUP BY key"
                )
            name = by_source[node.name]
            return node if name == node.name else ColumnRef(name)

        items = [
            (n, aggregate(e, n) if isinstance(e, AggCall)
             else _map(e, over_output))
            for n, e in items
        ]
        having = None
        if stmt.having is not None:
            having = _map(self._rewrite(scope, stmt.having), over_output)
        pre = keys + inputs
        if any(not isinstance(e, ColumnRef) or e.name != n for n, e in pre):
            body = _project(body, pre)
        columns = [n for n, _ in keys] + [s.name for s in specs]
        items = [(n, ColumnRef(n)) for n, _ in keys[:len(extra_keys)]] + \
            items
        return _Built(
            Aggregate(body.plan, tuple(n for n, _ in keys), tuple(specs),
                      having),
            columns,
        ), items


def _signature(expr: Expr) -> str:
    """A column's name, or a computed expression's text."""
    return expr.name if isinstance(expr, ColumnRef) else repr(expr)


def _joins_a_subquery(scope: _Scope, conjunct: Expr) -> bool:
    """EXISTS / IN, or a comparison with a correlated scalar."""
    if not scope.subscopes:
        return False
    if isinstance(conjunct, Subquery):
        return conjunct.kind != "scalar"
    return isinstance(conjunct, Compare) and any(
        isinstance(side, Subquery) and scope.subscopes[side].correlated
        for side in (conjunct.left, conjunct.right)
    )


def _facts(scope: _Scope, nodes: list[Expr]):
    """(bindings, plan names) of ``scope`` that ``nodes`` read, their
    subqueries' correlated references included, and whether they read
    an enclosing scope's column."""
    sources, refs, outer = set(), set(), False
    for node in nodes:
        if isinstance(node, (ColumnRef, QualifiedRef)):
            binding = scope.bound[node]
            if binding.scope is not scope:
                outer = True
                continue
            sources.add(binding.source)
            refs.add(binding.name)
        elif isinstance(node, Subquery):
            for b in _reaching(scope.subscopes[node], scope):
                sources.add(b.source)
                refs.add(b.name)
    return frozenset(sources), frozenset(refs), outer


def _reaching(inner: _Scope, target: _Scope) -> list[_Binding]:
    """Bindings of ``target`` read from ``inner`` or scopes inside it."""
    out = [b for b in inner.bound.values() if b.scope is target]
    for sub in inner.subscopes.values():
        out += _reaching(sub, target)
    return out


def _correlation_pair(inner: _Scope, expr: Expr):
    """``inner_col = outer_col`` as (inner, outer) plan names; None for
    any other correlated predicate."""
    if not (isinstance(expr, Compare) and expr.op is CompareOp.EQ):
        return None
    bindings = [inner.bound.get(side) for side in (expr.left,
                                                      expr.right)]
    if None in bindings:
        return None
    mine = [b for b in bindings if b.scope is inner]
    theirs = [b for b in bindings if b.scope is not inner]
    if len(mine) != 1 or len(theirs) != 1:
        return None
    return mine[0].name, theirs[0].name


def _correlated(inner: _Scope, expr: Expr, inner_names, outer_names):
    """A correlated predicate over (outer row, inner row) plan names."""

    def fn(node: Expr) -> Expr | None:
        binding = inner.bound.get(node)
        if binding is None:
            return None
        names = inner_names if binding.scope is inner else outer_names
        return ColumnRef(names.get(binding.name, binding.name))

    return _map(expr, fn)


def _one_value(scope: _Scope) -> None:
    """A scalar subquery is one aggregate value: one row, one column."""
    stmt = scope.stmt
    if len(stmt.items) != 1 or stmt.group_by or not scope.aggregated:
        raise PlanningError(
            "a scalar subquery selects one aggregate, without GROUP BY"
        )


def _filter(built: _Built, conjuncts: list[Expr]) -> _Built:
    return _Built(Filter(built.plan, _conjunction(conjuncts)),
                  built.columns)


def _project(built: _Built, outputs: list[tuple[str, Expr]]) -> _Built:
    """A Project over ``built``; over a Project it fuses into one, the
    inner expressions substituted."""
    plan = built.plan
    if isinstance(plan, Project):
        inner = dict(plan.outputs)
        outputs = [
            (n, _map(e, lambda node: inner.get(node.name)
                     if isinstance(node, ColumnRef) else None))
            for n, e in outputs
        ]
        plan = plan.child
    return _Built(Project(plan, tuple(outputs)), [n for n, _ in outputs])
