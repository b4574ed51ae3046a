"""Schema and dtype inference over a logical plan (pass 1).

Two layers share one walker:

- **Lenient inference** mirrors :func:`repro.sqlir.expr.evaluate` *exactly*
  — it raises :class:`InferenceError` precisely where evaluation would
  raise, and silently produces the same (possibly garbage) result kind
  where evaluation silently proceeds.  The morsel-safety pass relies on
  this fidelity to reproduce the engine's merge decisions statically.
- **Strict diagnostics** layer on top: constructs that execute but
  compute garbage (string codes in arithmetic, SUM over a string
  column, CASE arms that drop a heap) are reported as ``AQ1xx``
  diagnostics without stopping inference.

The walker never touches column *data* — only catalog metadata — so it
is safe to run before a single page is streamed off flash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.analysis.diagnostics import Diagnostic, Severity, diag
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
    lit,
)
from repro.sqlir.plan import (
    MATCH_FLAG,
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

__all__ = [
    "ColumnMeta",
    "InferenceError",
    "Schema",
    "TypeChecker",
    "scan_schema",
]


@dataclass(frozen=True)
class ColumnMeta:
    """Static type of one column: evaluation kind, fixed-point scale,
    and whether a string heap travels with it."""

    kind: Kind
    scale: int = 0
    has_heap: bool = False

    def describe(self) -> str:
        heap = "+heap" if self.has_heap else ""
        scale = f"@{self.scale}" if self.scale else ""
        return f"{self.kind.value}{scale}{heap}"


Schema = dict[str, ColumnMeta]

_INT = ColumnMeta(Kind.INT, 0)
_BOOL = ColumnMeta(Kind.BOOL, 0)
_FLOAT = ColumnMeta(Kind.FLOAT, 0)


class InferenceError(Exception):
    """Static counterpart of the exception ``evaluate()`` would raise."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def scan_schema(table: Any) -> Schema:
    """Static image of ``engine.relation.typed_array_from_column``."""
    return {
        name: _stored_meta(table.column(name).ctype)
        for name in table.column_names
    }


@lru_cache(maxsize=None)  # one entry per storage type
def _stored_meta(ctype: Any) -> ColumnMeta:
    kind, scale = ctype.eval_domain
    return ColumnMeta(kind, scale, has_heap=kind is Kind.STR)


class TypeChecker:
    """Infers per-node output schemas and collects diagnostics.

    One checker types a plan once: ``schema_of`` is memoised per node,
    so every later question about the same tree (another pass, another
    node) reads the schema the first walk inferred.
    """

    def __init__(self, catalog: Any, collect: bool = True) -> None:
        self.catalog = catalog
        self.collect = collect
        self.diagnostics: list[Diagnostic] = []
        # The first expression of each node that evaluate() would
        # refuse, recorded whether or not diagnostics are collected.
        self.failures: dict[object, InferenceError] = {}
        self._schemas: dict[Plan, Schema | None] = {}

    # -- reporting ---------------------------------------------------------

    def _emit(self, code: str, severity: Severity, message: str,
              node: object) -> None:
        if self.collect:
            self.diagnostics.append(diag(code, severity, message, node))

    # -- plan-level inference ---------------------------------------------

    def schema_of(self, plan: Plan) -> Schema | None:
        """Output schema of ``plan``; ``None`` below an unknown table."""
        if plan not in self._schemas:
            self._schemas[plan] = self._infer_node(plan)
        return self._schemas[plan]

    def _infer_node(self, plan: Plan) -> Schema | None:
        if isinstance(plan, Scan):
            return self._infer_scan(plan)
        if isinstance(plan, Filter):
            schema = self.schema_of(plan.child)
            if schema is not None:
                meta = self._expr_meta(plan.predicate, schema, plan)
                if meta is not None and meta.kind is not Kind.BOOL:
                    self._emit(
                        "AQ106",
                        Severity.WARNING,
                        f"filter predicate has kind {meta.kind.value}, "
                        "not bool; rows kept by nonzero-ness",
                        plan,
                    )
            return schema
        if isinstance(plan, Project):
            return self._infer_project(plan)
        if isinstance(plan, Join):
            return self._infer_join(plan)
        if isinstance(plan, Aggregate):
            return self._infer_aggregate(plan)
        if isinstance(plan, Sort):
            return self._infer_sort(plan)
        if isinstance(plan, Limit):
            if plan.count < 0:
                self._emit(
                    "AQ114",
                    Severity.WARNING,
                    f"negative limit {plan.count} truncates from the end",
                    plan,
                )
            return self.schema_of(plan.child)
        if isinstance(plan, Distinct):
            return self.schema_of(plan.child)
        self._emit(
            "AQ110",
            Severity.ERROR,
            f"unknown plan node {type(plan).__name__}",
            plan,
        )
        return None

    def _infer_scan(self, plan: Scan) -> Schema | None:
        try:
            table = self.catalog.table(plan.table)
        except KeyError:
            self._emit(
                "AQ110",
                Severity.ERROR,
                f"unknown table {plan.table!r}",
                plan,
            )
            return None
        if plan.columns is None:
            return scan_schema(table)
        schema: Schema = {}
        for name in plan.columns:
            if table.has_column(name):
                schema[name] = _stored_meta(table.column(name).ctype)
            else:
                self._emit(
                    "AQ101",
                    Severity.ERROR,
                    f"table {plan.table!r} has no column {name!r}",
                    plan,
                )
                schema[name] = _INT  # placeholder to limit cascades
        return schema

    def _infer_project(self, plan: Project) -> Schema | None:
        child = self.schema_of(plan.child)
        if child is None:
            return None
        schema: Schema = {}
        for name, expr in plan.outputs:
            if name in schema:
                self._emit(
                    "AQ113",
                    Severity.WARNING,
                    f"duplicate project output {name!r}; last wins",
                    plan,
                )
            meta = self._expr_meta(expr, child, plan)
            schema[name] = meta if meta is not None else _INT
        return schema

    def _infer_join(self, plan: Join) -> Schema | None:
        left = self.schema_of(plan.left)
        right = self.schema_of(plan.right)
        if left is None or right is None:
            return None
        lmeta = left.get(plan.left_key)
        rmeta = right.get(plan.right_key)
        for key, side, meta in (
            (plan.left_key, "left", lmeta),
            (plan.right_key, "right", rmeta),
        ):
            if meta is None:
                self._emit(
                    "AQ101",
                    Severity.ERROR,
                    f"join {side} key {key!r} not in {side} input",
                    plan,
                )
        if lmeta is not None and rmeta is not None:
            if lmeta.kind is not rmeta.kind:
                self._emit(
                    "AQ112",
                    Severity.ERROR,
                    "join key kinds differ: "
                    f"{plan.left_key}:{lmeta.describe()} vs "
                    f"{plan.right_key}:{rmeta.describe()}",
                    plan,
                )
            elif lmeta.scale != rmeta.scale:
                self._emit(
                    "AQ112",
                    Severity.WARNING,
                    "join key scales differ: raw fixed-point values "
                    f"match at different magnitudes ({lmeta.scale} vs "
                    f"{rmeta.scale})",
                    plan,
                )
        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            schema = dict(left)
        else:
            schema = dict(left)
            extra = dict(right)
            if plan.kind is JoinKind.LEFT_OUTER:
                extra[MATCH_FLAG] = _BOOL
            for name, meta in extra.items():
                if name in schema:
                    self._emit(
                        "AQ111",
                        Severity.ERROR,
                        f"join output column collision on {name!r}",
                        plan,
                    )
                schema[name] = meta
        if plan.residual is not None:
            pair = dict(left)
            pair.update(right)
            meta = self._expr_meta(plan.residual, pair, plan)
            if meta is not None and meta.kind is not Kind.BOOL:
                self._emit(
                    "AQ106",
                    Severity.WARNING,
                    f"join residual has kind {meta.kind.value}, not bool",
                    plan,
                )
        return schema

    def _infer_aggregate(self, plan: Aggregate) -> Schema | None:
        child = self.schema_of(plan.child)
        if child is None:
            return None
        schema: Schema = {}
        for key in plan.keys:
            meta = child.get(key)
            if meta is None:
                self._emit(
                    "AQ101",
                    Severity.ERROR,
                    f"group key {key!r} not in aggregate input",
                    plan,
                )
                meta = _INT
            schema[key] = meta
        for spec in plan.aggregates:
            schema[spec.name] = self._agg_meta(spec, child, plan)
        if plan.having is not None:
            meta = self._expr_meta(plan.having, schema, plan)
            if meta is not None and meta.kind is not Kind.BOOL:
                self._emit(
                    "AQ106",
                    Severity.WARNING,
                    f"having clause has kind {meta.kind.value}, not bool",
                    plan,
                )
        return schema

    def _agg_meta(self, spec: Any, child: Schema,
                  plan: object) -> ColumnMeta:
        if spec.expr is None:
            if spec.func is not AggFunc.COUNT:
                self._emit(
                    "AQ103",
                    Severity.ERROR,
                    f"{spec.func.value}() needs an argument expression",
                    plan,
                )
            return _INT
        meta = self._expr_meta(spec.expr, child, plan)
        if meta is None:
            return _INT
        if spec.func in (AggFunc.COUNT, AggFunc.COUNT_DISTINCT):
            return _INT
        if meta.kind is Kind.STR:
            self._emit(
                "AQ103",
                Severity.ERROR,
                f"{spec.func.value}() over a string column aggregates "
                f"heap codes ({spec.name!r})",
                plan,
            )
        if spec.func is AggFunc.AVG:
            return _FLOAT
        # SUM/MIN/MAX keep the input kind and scale but drop any heap.
        return ColumnMeta(meta.kind, meta.scale)

    def _infer_sort(self, plan: Sort) -> Schema | None:
        schema = self.schema_of(plan.child)
        if schema is None:
            return None
        for key in plan.keys:
            meta = schema.get(key.column)
            if meta is None:
                self._emit(
                    "AQ101",
                    Severity.ERROR,
                    f"sort key {key.column!r} not in input",
                    plan,
                )
            elif meta.kind is Kind.STR and not meta.has_heap:
                self._emit(
                    "AQ102",
                    Severity.ERROR,
                    f"sort key {key.column!r} is a string that lost its "
                    "heap; order would be undefined",
                    plan,
                )
        return schema

    # -- expression-level inference ---------------------------------------

    def _expr_meta(self, expr: Expr, schema: Schema,
                   node: object) -> ColumnMeta | None:
        """Strict wrapper: lenient inference + diagnostics, never raises."""
        try:
            return self.infer(expr, schema, node)
        except InferenceError as err:
            self.failures.setdefault(node, err)
            self._emit(err.code, Severity.ERROR, err.message, node)
            return None

    def infer(self, expr: Expr, schema: Schema,
              node: object = None) -> ColumnMeta:
        """Lenient inference: raises :class:`InferenceError` exactly
        where ``evaluate()`` would raise at runtime."""
        if isinstance(expr, ColumnRef):
            meta = schema.get(expr.name)
            if meta is None:
                raise InferenceError(
                    "AQ101",
                    f"expression references unknown column {expr.name!r}; "
                    f"available: {sorted(schema)}",
                )
            return meta
        if isinstance(expr, Literal):
            if expr.kind is Kind.STR:
                return ColumnMeta(Kind.STR, 0, has_heap=False)
            return ColumnMeta(expr.kind, expr.scale)
        if isinstance(expr, Arith):
            return self._infer_arith(expr, schema, node)
        if isinstance(expr, Compare):
            return self._infer_compare(expr, schema, node)
        if isinstance(expr, BoolExpr):
            for arg in expr.args:
                self.infer(arg, schema, node)
            return _BOOL
        if isinstance(expr, Like):
            meta = self.infer(expr.column, schema, node)
            if meta.kind is not Kind.STR or not meta.has_heap:
                raise InferenceError(
                    "AQ104", "LIKE requires a string column"
                )
            return _BOOL
        if isinstance(expr, InList):
            return self._infer_in(expr, schema, node)
        if isinstance(expr, CaseWhen):
            return self._infer_case(expr, schema, node)
        if isinstance(expr, ExtractYear):
            meta = self.infer(expr.column, schema, node)
            if meta.kind is not Kind.INT or meta.scale != 0:
                self._emit(
                    "AQ107",
                    Severity.ERROR
                    if meta.kind is Kind.STR
                    else Severity.WARNING,
                    "EXTRACT(year) over a non-date operand "
                    f"({meta.describe()}) decodes garbage epochs",
                    node,
                )
            return _INT
        if isinstance(expr, Substring):
            meta = self.infer(expr.column, schema, node)
            if meta.kind is not Kind.STR or not meta.has_heap:
                raise InferenceError(
                    "AQ104", "SUBSTRING requires a string column"
                )
            return ColumnMeta(Kind.STR, 0, has_heap=True)
        if isinstance(expr, ScalarSubquery):
            return self._infer_subquery(expr, node)
        raise InferenceError(
            "AQ110",
            f"cannot evaluate expression node {type(expr).__name__}",
        )

    def _infer_arith(self, expr: Arith, schema: Schema,
                     node: object) -> ColumnMeta:
        left = self.infer(expr.left, schema, node)
        right = self.infer(expr.right, schema, node)
        for side, meta in (("left", left), ("right", right)):
            if meta.kind is Kind.STR:
                self._emit(
                    "AQ102",
                    Severity.ERROR,
                    f"string {side} operand of {expr.op.value!r} is "
                    "evaluated over heap codes",
                    node,
                )
        if expr.op is ArithOp.DIV:
            return _FLOAT
        if expr.op is ArithOp.MUL:
            if left.kind is Kind.FLOAT or right.kind is Kind.FLOAT:
                return _FLOAT
            return ColumnMeta(Kind.INT, left.scale + right.scale)
        if left.kind is Kind.FLOAT or right.kind is Kind.FLOAT:
            return _FLOAT
        return ColumnMeta(Kind.INT, max(left.scale, right.scale))

    def _infer_compare(self, expr: Compare, schema: Schema,
                       node: object) -> ColumnMeta:
        # Mirror _try_string_compare: a string literal on either side
        # forces the other side to be a heap-backed string expression.
        for column_side, literal_side in (
            (expr.left, expr.right),
            (expr.right, expr.left),
        ):
            if (
                isinstance(literal_side, Literal)
                and literal_side.kind is Kind.STR
            ):
                meta = self.infer(column_side, schema, node)
                if meta.kind is not Kind.STR or not meta.has_heap:
                    raise InferenceError(
                        "AQ102",
                        f"string literal {literal_side.raw!r} compared "
                        "against a non-string expression",
                    )
                return _BOOL
        left = self.infer(expr.left, schema, node)
        right = self.infer(expr.right, schema, node)
        if left.kind is Kind.STR and right.kind is Kind.STR:
            if left.has_heap != right.has_heap:
                raise InferenceError(
                    "AQ102",
                    "string comparison where only one side kept its heap",
                )
            if not left.has_heap:
                self._emit(
                    "AQ102",
                    Severity.ERROR,
                    "comparison of heap-less string columns compares "
                    "raw codes",
                    node,
                )
            return _BOOL
        if Kind.STR in (left.kind, right.kind):
            # _align silently compares heap codes against numbers.
            self._emit(
                "AQ102",
                Severity.ERROR,
                f"{expr.op.value!r} compares a string column's heap "
                "codes against a numeric expression",
                node,
            )
        return _BOOL

    def _infer_in(self, expr: InList, schema: Schema,
                  node: object) -> ColumnMeta:
        meta = self.infer(expr.column, schema, node)
        if meta.kind is Kind.STR:
            if not meta.has_heap:
                raise InferenceError(
                    "AQ104", "IN over a string column that lost its heap"
                )
            return _BOOL
        finest = 0
        for option in expr.options:
            if isinstance(option, str):
                raise InferenceError(
                    "AQ102",
                    f"string option {option!r} in IN-list over a "
                    f"{meta.kind.value} column",
                )
            finest = max(finest, lit(option).scale)
        if finest > meta.scale:
            self._emit(
                "AQ105",
                Severity.WARNING,
                f"IN-list literal scale {finest} finer than column "
                f"scale {meta.scale}; an option with nonzero extra "
                f"digits matches no row",
                node,
            )
        return _BOOL

    def _infer_case(self, expr: CaseWhen, schema: Schema,
                    node: object) -> ColumnMeta:
        self.infer(expr.condition, schema, node)
        then = self.infer(expr.then, schema, node)
        otherwise = self.infer(expr.otherwise, schema, node)
        for arm, meta in (("then", then), ("else", otherwise)):
            if meta.kind is Kind.STR:
                self._emit(
                    "AQ102",
                    Severity.ERROR,
                    f"CASE {arm}-arm is a string; the result keeps heap "
                    "codes but drops the heap",
                    node,
                )
        if then.kind is Kind.FLOAT or otherwise.kind is Kind.FLOAT:
            return _FLOAT
        return ColumnMeta(Kind.INT, max(then.scale, otherwise.scale))

    def _infer_subquery(self, expr: ScalarSubquery,
                        node: object) -> ColumnMeta:
        sub_schema = self.schema_of(expr.plan)
        if sub_schema is None:
            return _INT
        if len(sub_schema) != 1:
            self._emit(
                "AQ108",
                Severity.ERROR,
                "scalar subquery must produce exactly one column, got "
                f"{sorted(sub_schema)}",
                node,
            )
            return _INT
        (meta,) = sub_schema.values()
        # Broadcast drops any heap (and strings broadcast as raw codes).
        return ColumnMeta(meta.kind, meta.scale)
