"""Query compiler: offload analysis and suspension rules (Sec. VI-E).

Walks a logical plan bottom-up deciding, per node, whether the device
pipeline can execute it, and why not when it can't:

1. **mid-plan Aggregate-GroupBy** — an aggregate whose consumers are
   not just Sort/Limit/Project breaks the streaming references to base
   tables; the device can still stream and pre-hash the child (the
   "device-assisted" mode that makes Q17/Q18 partial offloads
   profitable), but the accumulate and everything above run on host;
2. **string heap too large** — LIKE / string-equality / SUBSTRING on a
   column whose heap (at the simulated SF) exceeds the 1 MB regex
   cache (Q9, Q13, Q16, Q20's p_name/o_comment/s_comment filters);
3. **group spill** — more groups than the 1024-bucket hash; detected
   at execution, the spilled accumulate ships to the host;
4. **DRAM exceeded** — join intermediates over device capacity;
   detected at execution, the subtree re-runs on the host.

The compiler also emits the Table Tasks of the offloaded parts (the
paper's programming model, Fig. 5): every chain of unary nodes between
a scan or join and the next join folds into as few selector →
transformer → Swissknife passes as its order allows.  The simulator's
scheduler emits and runs them one by one; ``emit_table_tasks`` lists
them for a whole plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.regex_accel import REGEX_CACHE_BYTES, effective_heap_bytes
from repro.core.row_selector import (
    DEFAULT_N_EVALUATORS,
    extract_predicate_program,
)
from repro.core.tabletask import SwissknifeOp, TableTask, TaskOutput
from repro.sqlir.expr import (
    AggFunc,
    Arith,
    ArithOp,
    BoolExpr,
    CaseWhen,
    ColumnRef,
    Compare,
    Expr,
    ExtractYear,
    InList,
    Kind,
    Like,
    Literal,
    ScalarSubquery,
    Substring,
    TypedArray,
)
from repro.sqlir.plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
)
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # the device's import chain reaches this module
    from repro.core.device import DeviceConfig


class SuspendReason(Enum):
    NONE = "none"
    MID_PLAN_GROUPBY = "mid-plan aggregate group-by"
    STRING_HEAP = "string heap exceeds regex cache"
    UNSUPPORTED_EXPR = "expression has no device lowering"
    UNSUPPORTED_OP = "operator not offloadable"
    GROUP_SPILL = "aggregate groups exceed hash buckets"
    DRAM_EXCEEDED = "device DRAM exceeded"
    DEVICE_FAULT = "device fault"


# The suspensions the compiler can decide from the plan and the catalog;
# the rest are only known once the device runs.
COMPILE_TIME_SUSPENSIONS = frozenset(
    {SuspendReason.MID_PLAN_GROUPBY, SuspendReason.STRING_HEAP}
)
REAL_SUSPENSIONS = COMPILE_TIME_SUSPENSIONS | {
    SuspendReason.GROUP_SPILL,
    SuspendReason.DRAM_EXCEEDED,
    SuspendReason.DEVICE_FAULT,
}


@dataclass(frozen=True)
class OffloadDecision:
    """Per-node verdict of the offload analysis."""

    offloadable: bool
    reason: SuspendReason = SuspendReason.NONE
    note: str = ""
    device_assisted: bool = False  # host aggregate fed by a device stream
    # Stream this subtree through the device even if it performs no
    # reduction itself — its parent is a device-assisted aggregate that
    # consumes the pre-hashed stream (the Q17/Q18 mode).
    stream_for_assist: bool = False

    def __repr__(self) -> str:
        flag = "device" if self.offloadable else f"host ({self.reason.value})"
        return f"OffloadDecision({flag}{', ' + self.note if self.note else ''})"


# The verdict of every node the device runs as it is.
_ON_DEVICE = OffloadDecision(True)


@dataclass
class CompiledQuery:
    """Analysis results for one plan (including scalar subqueries)."""

    plan: Plan
    # Keyed by the node itself (plan nodes hash by identity): a table
    # that holds its keys cannot meet a recycled ``id()``.
    decisions: dict[Plan, OffloadDecision]
    subqueries: list["CompiledQuery"] = field(default_factory=list)
    # The offload roots the device runs, outermost first: those whose
    # subtree reduces, and those streaming for an assisted aggregate.
    # Decided once per root at compile time.
    device_roots: list[Plan] = field(default_factory=list)

    def decision(self, node: Plan) -> OffloadDecision:
        return self.decisions[node]

    def offload_roots(self) -> list[Plan]:
        """Maximal offloadable subtrees, outermost first."""
        roots: list[Plan] = []
        stack = [self.plan]
        while stack:  # pre-order; nothing below a root is another
            node = stack.pop()
            if self.decisions[node].offloadable:
                roots.append(node)
            else:
                stack.extend(reversed(node.children()))
        return roots

    def flatten(self) -> list["CompiledQuery"]:
        """This compilation unit plus every nested scalar-subquery unit,
        depth-first — the flat view cross-validation passes walk."""
        units = [self]
        for sub in self.subqueries:
            units.extend(sub.flatten())
        return units

    def suspend_reasons(self) -> set[SuspendReason]:
        reasons = {
            d.reason
            for d in self.decisions.values()
            if d.reason is not SuspendReason.NONE
        }
        for sub in self.subqueries:
            reasons |= sub.suspend_reasons()
        return reasons

    def fully_offloadable(self) -> bool:
        """True when only Sort/Limit/Project finalisation stays host-side."""
        def node_ok(node: Plan) -> bool:
            if self.decisions[node].offloadable:
                return True
            if isinstance(node, (Sort, Limit)):
                return all(node_ok(c) for c in node.children())
            if isinstance(node, Project):
                return all(node_ok(c) for c in node.children())
            return False

        return node_ok(self.plan) and all(
            sub.fully_offloadable() for sub in self.subqueries
        )


class QueryCompiler:
    """Offload analysis against a catalog and a device configuration."""

    def __init__(
        self,
        catalog: Catalog,
        scale_ratio: float = 1.0,
        regex_cache_bytes: int = REGEX_CACHE_BYTES,
    ):
        self.catalog = catalog
        self.scale_ratio = scale_ratio
        self.regex_cache_bytes = regex_cache_bytes
        self._provenance_memo: dict[Plan, dict[str, tuple[str, str]]] = {}

    # -- public ------------------------------------------------------------

    def compile(self, plan: Plan) -> CompiledQuery:
        self._provenance_memo = {}
        return self._compile(plan)

    def _compile(self, plan: Plan) -> CompiledQuery:
        """One compilation unit; a scalar subquery's plan is another,
        compiled under the same provenance memo."""
        decisions: dict[Plan, OffloadDecision] = {}
        subqueries: list[CompiledQuery] = []

        def analyze(node: Plan, on_tail: bool) -> None:
            # On the tail: every ancestor is a Sort, Limit or Project,
            # so a terminal device op may feed the node.
            keeps_tail = on_tail and isinstance(node, (Sort, Limit, Project))
            for child in node.children():
                analyze(child, keeps_tail)
            decisions[node] = self._decide(
                node, decisions, on_tail, subqueries
            )

        analyze(plan, True)
        compiled = CompiledQuery(plan, decisions, subqueries)
        # Only now: an assisted aggregate marks its child's
        # ``stream_for_assist`` after the child's own decision.
        compiled.device_roots = [
            root for root in compiled.offload_roots()
            if decisions[root].stream_for_assist or subtree_reduces(root)
        ]
        return compiled

    def provenance(self, node: Plan) -> dict[str, tuple[str, str]]:
        """Output column -> (base table, base column), through renames,
        filters, joins and aggregate keys.

        Lets the heap-size rule see through projection aliases (Q7/Q8
        bind nation names to ``supp_nation``/``cust_nation``), and the
        suspend predictor bound a group key by its base column's
        domain: the walk ignores row multiplicity, so the base column's
        values are a superset of the output's.  A computed column, and
        any column of a table the catalog lacks, has no entry.
        """
        memo = self._provenance_memo.get(node)
        if memo is not None:
            return memo
        prov: dict[str, tuple[str, str]] = {}
        if isinstance(node, Scan):
            table = self.catalog.tables.get(node.table)
            if table is not None:
                names = node.columns or tuple(table.column_names)
                prov = {
                    n: (node.table, n) for n in names if table.has_column(n)
                }
        elif isinstance(node, Project):
            child = self.provenance(node.child)
            for name, expr in node.outputs:
                if isinstance(expr, ColumnRef) and expr.name in child:
                    prov[name] = child[expr.name]
        elif isinstance(node, Join):
            prov = dict(self.provenance(node.left))
            if node.kind not in (JoinKind.SEMI, JoinKind.ANTI):
                prov.update(self.provenance(node.right))
        elif isinstance(node, Aggregate):
            child = self.provenance(node.child)
            prov = {
                k: child[k] for k in node.keys if k in child
            }
        elif node.children():
            prov = dict(self.provenance(node.children()[0]))
        self._provenance_memo[node] = prov
        return prov

    # -- analysis ----------------------------------------------------------------

    def _decide(
        self,
        node: Plan,
        decisions: dict[Plan, OffloadDecision],
        on_tail: bool,
        subqueries: list[CompiledQuery],
    ) -> OffloadDecision:
        if isinstance(node, Scan):
            return _ON_DEVICE

        if isinstance(node, Filter):
            child = decisions[node.child]
            if not child.offloadable:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "filter over a host-resident input",
                )
            verdict = self._check_expr(
                node.predicate, subqueries, (node.child,)
            )
            return verdict if verdict is not None else _ON_DEVICE

        if isinstance(node, Project):
            child = decisions[node.child]
            if not child.offloadable:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "project over a host-resident input",
                )
            for _, expr in node.outputs:
                verdict = self._check_expr(expr, subqueries, (node.child,))
                if verdict is not None:
                    return verdict
            return _ON_DEVICE

        if isinstance(node, Join):
            left = decisions[node.left]
            right = decisions[node.right]
            if node.kind is JoinKind.LEFT_OUTER:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "left-outer join stays on the host",
                )
            if not (left.offloadable and right.offloadable):
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "join input is host-resident",
                )
            if node.residual is not None:
                verdict = self._check_expr(
                    node.residual, subqueries, (node.left, node.right)
                )
                if verdict is not None:
                    return verdict
            return _ON_DEVICE

        if isinstance(node, (Aggregate, Distinct)):
            child_node = node.children()[0]
            child = decisions[child_node]
            if isinstance(node, Aggregate):
                inputs = (child_node,)
                for spec in node.aggregates:
                    if spec.func is AggFunc.COUNT_DISTINCT:
                        return OffloadDecision(
                            False, SuspendReason.UNSUPPORTED_OP,
                            "count(distinct) has no Swissknife operator",
                            device_assisted=False,
                        )
                    if spec.expr is not None:
                        verdict = self._check_expr(
                            spec.expr, subqueries, inputs
                        )
                        if verdict is not None:
                            return verdict
                if node.having is not None:
                    verdict = self._check_expr(
                        node.having, subqueries, inputs
                    )
                    if verdict is not None:
                        return verdict
            if not child.offloadable:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "aggregate over a host-resident input",
                )
            if not on_tail:
                # Condition 1: the aggregate feeds more plan; device
                # streams + pre-hashes, host accumulates and resumes.
                decisions[child_node] = replace(
                    child, stream_for_assist=True
                )
                return OffloadDecision(
                    False,
                    SuspendReason.MID_PLAN_GROUPBY,
                    device_assisted=True,
                )
            return _ON_DEVICE

        if isinstance(node, (Sort, Limit)):
            # Result finalisation: tiny data; the simulator keeps it on
            # the host (the paper DMAs reduced outputs to the host too).
            return OffloadDecision(
                False, SuspendReason.UNSUPPORTED_OP,
                "result finalisation on the host",
            )

        return OffloadDecision(
            False, SuspendReason.UNSUPPORTED_OP, type(node).__name__
        )

    # -- expression checks ------------------------------------------------------------

    def _check_expr(
        self,
        expr: Expr,
        subqueries: list[CompiledQuery],
        inputs: tuple[Plan, ...] = (),
    ) -> OffloadDecision | None:
        """Why ``expr`` cannot run on the device, or None if it can.

        ``expr`` reads the outputs of the plan nodes ``inputs``; their
        provenance is looked at only for a string operator's column.

        Compiles the scalar subqueries it meets, left to right, up to
        the first expression the device cannot run.
        """
        if isinstance(expr, (ColumnRef, Literal)):
            return None

        if isinstance(expr, Like):
            return self._check_string_column(expr.column, inputs)

        if isinstance(expr, Substring):
            verdict = self._check_string_column(expr.column, inputs)
            if verdict is not None:
                return verdict
            return OffloadDecision(
                False,
                SuspendReason.UNSUPPORTED_EXPR,
                "substring produces a new string column on the host",
            )

        if isinstance(expr, InList):
            inner = expr.column
            if self._is_string_column(inner, inputs):
                return self._check_string_column(inner, inputs)
            return self._check_expr(inner, subqueries, inputs)

        if isinstance(expr, Compare):
            for side, other in (
                (expr.left, expr.right),
                (expr.right, expr.left),
            ):
                if isinstance(other, Literal) and other.kind is Kind.STR:
                    return self._check_string_column(side, inputs)

        elif isinstance(expr, Arith):
            if expr.op is ArithOp.DIV:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_EXPR,
                    "division is host-side (post-reduction) arithmetic",
                )

        elif isinstance(expr, ScalarSubquery):
            subqueries.append(self._compile(expr.plan))
            return None

        elif not isinstance(expr, (BoolExpr, CaseWhen, ExtractYear)):
            return OffloadDecision(
                False, SuspendReason.UNSUPPORTED_EXPR, type(expr).__name__
            )

        for child in expr.children():
            verdict = self._check_expr(child, subqueries, inputs)
            if verdict is not None:
                return verdict
        return None

    def _is_string_column(
        self, expr: Expr, inputs: tuple[Plan, ...] = ()
    ) -> bool:
        if not isinstance(expr, ColumnRef):
            return False
        resolved = self._resolve_column(expr.name, inputs)
        return resolved is not None and resolved[1].ctype.is_string

    def _check_string_column(
        self, expr: Expr, inputs: tuple[Plan, ...] = ()
    ) -> OffloadDecision | None:
        """Condition 2: the regex cache must hold the column's heap
        (None when it does)."""
        if not isinstance(expr, ColumnRef):
            return OffloadDecision(
                False, SuspendReason.UNSUPPORTED_EXPR,
                "string operator over a computed expression",
            )
        resolved = self._resolve_column(expr.name, inputs)
        if resolved is None or resolved[1].heap is None:
            # A renamed/derived string column: conservatively host-side.
            return OffloadDecision(
                False, SuspendReason.STRING_HEAP,
                f"cannot bound the heap of {expr.name!r}",
            )
        table_name, column = resolved
        effective = self._effective_heap_bytes(
            column.heap, len(column), table_name
        )
        if effective > self.regex_cache_bytes:
            return OffloadDecision(
                False,
                SuspendReason.STRING_HEAP,
                f"{expr.name}: {effective} bytes (scaled) > 1 MB cache",
            )
        return None

    def _effective_heap_bytes(
        self, heap, base_rows: int, table_name: str | None
    ) -> int:
        """Heap size at the simulated SF (fixed domains don't grow)."""
        constant = table_name in self.catalog.constant_tables
        return effective_heap_bytes(
            heap, base_rows, self.scale_ratio, constant=constant
        )

    def _resolve_column(self, name: str, inputs: tuple[Plan, ...] = ()):
        """Resolve to (table, column) via the inputs' provenance — a
        later input's first, as a join's right side shadows its left —
        then by global name."""
        for node in reversed(inputs):
            origin = self.provenance(node).get(name)
            if origin is not None:
                table, base = origin
                return table, self.catalog.table(table).column(base)
        return self._find_base_column(name)

    def _find_base_column(self, name: str):
        """Resolve a column name to its base table column.

        TPC-H column names are globally unique, so a catalog-wide
        search is unambiguous; names that don't resolve are derived
        columns.
        """
        for table in self.catalog.tables.values():
            if table.has_column(name):
                return table.name, table.column(name)
        return None

    # -- table task emission ----------------------------------------------------------

    def emit_table_tasks(
        self, root: Plan, config: "DeviceConfig | None" = None
    ) -> list[TableTask]:
        """Every Table Task of ``root``, bottom-up, without running any.

        Tasks over a base table are complete.  One over a join's pairs
        or an earlier task's output names no table: the scheduler hands
        it that stream — and emits it with the stream in hand, so there
        column kinds are exact where this listing has the catalog's
        (see :meth:`_input_kinds`).  Joins are the scheduler's glue and
        emit nothing.  The Row Selector's evaluator count is
        ``config``'s (the prototype's when omitted).
        """
        n_evaluators = (
            DEFAULT_N_EVALUATORS if config is None
            else config.n_predicate_evaluators
        )
        self._provenance_memo = {}
        tasks: list[TableTask] = []

        def walk(node: Plan) -> None:
            chain, source = unary_chain(node)
            for child in source.children():
                walk(child)
            opened = not isinstance(source, Scan)
            while chain or not opened:
                task, rest = self.emit_table_task(
                    chain, source, n_evaluators
                )
                tasks.append(task)
                if chain:
                    # The next task reads what the last folded node makes.
                    source = chain[-len(rest) - 1]
                chain, opened = rest, True

        walk(root)
        return tasks

    def emit_table_task(
        self,
        chain: list[Plan],
        source: Plan | dict[str, TypedArray],
        n_evaluators: int,
    ) -> tuple[TableTask, list[Plan]]:
        """Fold the longest prefix of ``chain`` into one task on ``source``.

        ``chain`` holds unary nodes bottom-up; ``source`` is what the
        first of them reads: a :class:`Scan`, the columns of a stream,
        or the plan node whose not-yet-run output it will be.  A node
        joins the task while its stage comes later in the pipeline than
        the last one used; the first node that does not closes the
        task, whose output feeds the next.  Returns the task and the
        nodes left.
        """
        task = TableTask(output=TaskOutput.STREAM)
        if isinstance(source, Scan):
            task.table, task.columns = source.table, source.columns
            task.nodes["scan"] = getattr(source, "node_id", None)
        stage = 0
        for taken, node in enumerate(chain):
            if _STAGE[type(node)] <= stage:
                return task, chain[taken:]
            stage = _STAGE[type(node)]
            kind = type(node).__name__.lower()
            task.nodes[kind] = getattr(node, "node_id", None)
            if isinstance(node, Filter):
                strings, scales = self._input_kinds(source, node.predicate)
                task.row_sel, task.row_filter = extract_predicate_program(
                    node.predicate,
                    n_evaluators=n_evaluators,
                    string_columns=strings,
                    column_scales=scales,
                )
            elif isinstance(node, Project):
                task.row_transf = node.outputs
            elif isinstance(node, Aggregate):
                task.operator = (
                    SwissknifeOp.AGGREGATE_GROUPBY if node.keys
                    else SwissknifeOp.AGGREGATE
                )
                task.operator_args = {
                    "keys": node.keys,
                    "aggregates": node.aggregates,
                    "having": node.having,
                }
            else:
                task.operator = SwissknifeOp.AGGREGATE_GROUPBY
                task.operator_args = {"distinct": True}
        return task, []

    def _input_kinds(
        self, source: Plan | dict[str, TypedArray], predicate: Expr
    ) -> tuple[frozenset[str], dict[str, int]]:
        """(columns the selector cannot compare, fixed-point scales).

        The Row Selector compares raw integers, so a CP term needs its
        column's scale.  A stream carries it; for an input that has not
        run yet the catalog knows it for base columns (through
        renames), and a computed column stays with the row filter.
        """
        refs = predicate.column_refs()
        unselectable: set[str] = set()
        scales: dict[str, int] = {}
        if isinstance(source, dict):
            for name in refs:
                array = source.get(name)
                if array is None:
                    continue
                if array.kind is Kind.STR:
                    unselectable.add(name)
                elif array.kind is Kind.INT:
                    scales[name] = array.scale
            return frozenset(unselectable), scales
        prov = self.provenance(source)
        for name in refs:
            origin = prov.get(name)
            if origin is None:
                unselectable.add(name)
                continue
            ctype = self.catalog.table(origin[0]).column(origin[1]).ctype
            kind, scales[name] = ctype.eval_domain
            if kind is Kind.STR:
                unselectable.add(name)
        return frozenset(unselectable), scales


def subtree_reduces(plan: Plan) -> bool:
    """Worth offloading only if the subtree reduces or transforms data
    beyond column renames (a bare streamed scan saves the host
    nothing — the bytes still transit host memory)."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (Filter, Join, Aggregate, Distinct)):
            return True
        stack.extend(node.children())
    return False


# Pipeline position of each unary plan node: selector, transformer,
# Swissknife.
_STAGE = {Filter: 1, Project: 2, Aggregate: 3, Distinct: 3}


def unary_chain(node: Plan) -> tuple[list[Plan], Plan]:
    """The unary device nodes from ``node`` down, bottom-up, and the
    scan, join or host operator they sit on."""
    chain: list[Plan] = []
    while type(node) in _STAGE:
        chain.append(node)
        node = node.children()[0]
    chain.reverse()
    return chain, node
