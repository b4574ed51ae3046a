"""Expression AST and vectorised evaluation.

Every expression evaluates to a :class:`TypedArray` — a NumPy array plus
a logical kind and, for fixed-point integers, a decimal scale.  The scale
rules mirror fixed-point hardware:

- add/sub align operands to the larger scale;
- mul adds scales;
- div (and avg) promote to float — in both the paper's system and ours,
  division only appears after reduction, on host-sized data.

String columns evaluate to their heap codes; predicates on strings
(equality, IN, LIKE) are computed over the heap's *unique* strings and
then mapped through the codes, which is exactly the trick AQUOMAN's 1 MB
regex accelerator plays (Sec. VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.storage.stringheap import StringHeap
from repro.storage.types import Kind, date_to_days


@dataclass
class TypedArray:
    """An evaluated expression: values + kind + fixed-point scale."""

    values: np.ndarray
    kind: Kind = Kind.INT
    scale: int = 0
    heap: StringHeap | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def stored(self) -> np.ndarray:
        """The values at the width they are kept in: what a compare
        reads without widening them to the evaluation dtype."""
        return self.values

    def rescaled(self, scale: int) -> "TypedArray":
        """Re-express a fixed-point array at a higher scale."""
        if self.kind is not Kind.INT:
            return self
        if scale < self.scale:
            raise ValueError("cannot rescale down without losing precision")
        if scale == self.scale:
            return self
        factor = 10 ** (scale - self.scale)
        return TypedArray(
            _elementwise(
                self.values,
                lambda v: v.astype(np.int64, copy=False) * factor,
            ),
            Kind.INT,
            scale,
        )

    def as_float(self) -> np.ndarray:
        """Decode to logical float values."""
        if self.kind is Kind.INT and self.scale:
            factor = 10**self.scale
            return _elementwise(self.values, lambda v: v / factor)
        return self.values.astype(np.float64, copy=False)


def _elementwise(values: np.ndarray, func) -> np.ndarray:
    """``func(values)`` for an elementwise ``func``.  A constant — a
    stride-0 view, what a literal evaluates to — stays one: ``func``
    runs on its one element."""
    if values.strides == (0,) and len(values):
        return _constant(func(values[:1]), len(values))
    return func(values)


def _constant(one: np.ndarray, nrows: int) -> np.ndarray:
    """The one value of ``one`` on every row: a read-only view with
    stride 0, so a constant costs no buffer and no fill (nothing writes
    in place).  Built directly: ``np.broadcast_to`` costs three times
    as much, which a short relation notices."""
    view = np.ndarray((nrows,), one.dtype, one, strides=(0,))
    view.flags.writeable = False
    return view


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def column_refs(self) -> set[str]:
        """All column names this expression reads."""
        refs: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ColumnRef):
                refs.add(node.name)
            stack.extend(node.children())
        return refs

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return Arith(ArithOp.ADD, self, _wrap(other))

    def __sub__(self, other):
        return Arith(ArithOp.SUB, self, _wrap(other))

    def __mul__(self, other):
        return Arith(ArithOp.MUL, self, _wrap(other))

    def __truediv__(self, other):
        return Arith(ArithOp.DIV, self, _wrap(other))

    def __rsub__(self, other):
        return Arith(ArithOp.SUB, _wrap(other), self)

    def __radd__(self, other):
        return Arith(ArithOp.ADD, _wrap(other), self)

    def __rmul__(self, other):
        return Arith(ArithOp.MUL, _wrap(other), self)

    def __eq__(self, other):  # type: ignore[override]
        return Compare(CompareOp.EQ, self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Compare(CompareOp.NE, self, _wrap(other))

    def __lt__(self, other):
        return Compare(CompareOp.LT, self, _wrap(other))

    def __le__(self, other):
        return Compare(CompareOp.LE, self, _wrap(other))

    def __gt__(self, other):
        return Compare(CompareOp.GT, self, _wrap(other))

    def __ge__(self, other):
        return Compare(CompareOp.GE, self, _wrap(other))

    def __and__(self, other):
        return BoolExpr(BoolOp.AND, (self, _wrap(other)))

    def __or__(self, other):
        return BoolExpr(BoolOp.OR, (self, _wrap(other)))

    def __invert__(self):
        return BoolExpr(BoolOp.NOT, (self,))

    def __hash__(self):
        return id(self)


@dataclass(eq=False)
class ColumnRef(Expr):
    """Reference to a named column of the node's input."""

    name: str

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(eq=False)
class Literal(Expr):
    """A constant, stored in raw fixed-point form."""

    raw: int | float | str
    kind: Kind = Kind.INT
    scale: int = 0

    def __repr__(self) -> str:
        return f"lit({self.raw!r}, {self.kind.value}, s={self.scale})"


class ArithOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(eq=False)
class Arith(Expr):
    op: ArithOp
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


class CompareOp(Enum):
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "CompareOp":
        """The operator with operands swapped (a < b  <=>  b > a)."""
        return {
            CompareOp.LT: CompareOp.GT,
            CompareOp.LE: CompareOp.GE,
            CompareOp.GT: CompareOp.LT,
            CompareOp.GE: CompareOp.LE,
            CompareOp.EQ: CompareOp.EQ,
            CompareOp.NE: CompareOp.NE,
        }[self]


@dataclass(eq=False)
class Compare(Expr):
    op: CompareOp
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


class BoolOp(Enum):
    AND = "and"
    OR = "or"
    NOT = "not"


@dataclass(eq=False)
class BoolExpr(Expr):
    op: BoolOp
    args: tuple[Expr, ...]

    def children(self):
        return self.args

    def __repr__(self) -> str:
        if self.op is BoolOp.NOT:
            return f"not({self.args[0]!r})"
        sep = f" {self.op.value} "
        return "(" + sep.join(repr(a) for a in self.args) + ")"


@dataclass(eq=False)
class Like(Expr):
    """SQL LIKE over a string column (``%`` and ``_`` wildcards)."""

    column: Expr
    pattern: str
    negated: bool = False

    def children(self):
        return (self.column,)

    def __repr__(self) -> str:
        op = "not like" if self.negated else "like"
        return f"({self.column!r} {op} {self.pattern!r})"


@dataclass(eq=False)
class InList(Expr):
    """``column IN (v0, v1, ...)`` over literal values."""

    column: Expr
    options: tuple = ()
    negated: bool = False

    def children(self):
        return (self.column,)

    def __repr__(self) -> str:
        op = "not in" if self.negated else "in"
        return f"({self.column!r} {op} {self.options!r})"


@dataclass(eq=False)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN a ELSE b END`` (two-armed)."""

    condition: Expr
    then: Expr
    otherwise: Expr

    def children(self):
        return (self.condition, self.then, self.otherwise)

    def __repr__(self) -> str:
        return f"case({self.condition!r}, {self.then!r}, {self.otherwise!r})"


@dataclass(eq=False)
class ExtractYear(Expr):
    """``EXTRACT(year FROM date_column)`` (Q7/Q8/Q9 group keys)."""

    column: Expr

    def children(self):
        return (self.column,)

    def __repr__(self) -> str:
        return f"year({self.column!r})"


@dataclass(eq=False)
class Substring(Expr):
    """``SUBSTRING(column FROM start FOR length)``, 1-based (Q22).

    Produces a new string column: evaluated once per unique heap
    string, like every other string operator here.
    """

    column: Expr
    start: int
    length: int

    def children(self):
        return (self.column,)

    def __repr__(self) -> str:
        return f"substr({self.column!r}, {self.start}, {self.length})"


@dataclass(eq=False)
class ScalarSubquery(Expr):
    """An uncorrelated subquery producing a single scalar.

    The engine executes ``plan`` once (memoised per query run) and
    broadcasts the scalar; the AQUOMAN compiler schedules the subquery's
    Table Tasks ahead of the consumer's.
    """

    plan: "object"  # repro.sqlir.plan.Plan; untyped to avoid an import cycle

    def __repr__(self) -> str:
        return f"scalar({self.plan!r})"


class AggFunc(Enum):
    """Aggregate functions supported by the Swissknife + host."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    COUNT = "count"
    AVG = "avg"
    COUNT_DISTINCT = "count_distinct"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand column reference."""
    return ColumnRef(name)


def lit(value) -> Literal:
    """Literal from a Python value.

    Integers stay scale-0 fixed-point; floats become scale-2 decimals
    (the TPC-H default); strings stay strings; ``datetime.date``-like
    ISO strings must use :func:`lit_date` explicitly.
    """
    if isinstance(value, Literal):
        return value
    if isinstance(value, bool):
        return Literal(int(value), Kind.BOOL, 0)
    if isinstance(value, int):
        return Literal(value, Kind.INT, 0)
    if isinstance(value, float):
        return lit_decimal(value)
    if isinstance(value, str):
        return Literal(value, Kind.STR, 0)
    raise TypeError(f"cannot make a literal from {value!r}")


def lit_decimal(value: float, scale: int = 2) -> Literal:
    """Fixed-point decimal literal at the given scale."""
    return Literal(int(round(value * 10**scale)), Kind.INT, scale)


def lit_date(iso: str) -> Literal:
    """Date literal (epoch-day fixed point, scale 0)."""
    return Literal(date_to_days(iso), Kind.INT, 0)


def literal_at_scale(literal: Literal, scale: int) -> int | None:
    """``literal``'s raw value at a column's ``scale``, as a Python int;
    None when the literal is finer than the column can express."""
    if literal.scale > scale:
        return None
    return int(literal.raw) * 10 ** (scale - literal.scale)


_INT64_MAX = 2**63 - 1


def held_by_int64(literal: Literal) -> bool:
    """Whether int64 fixed point holds ``literal``: its raw value and
    its scale's factor ``10**scale`` both fit.  Arithmetic needs both;
    a comparison needs neither (:func:`compare_at_scale`)."""
    if literal.kind is not Kind.INT:
        return True
    return (
        -_INT64_MAX - 1 <= literal.raw <= _INT64_MAX
        and 10**literal.scale <= _INT64_MAX
    )


def compare_at_scale(
    op: CompareOp, raw: int, literal_scale: int, scale: int
) -> tuple[CompareOp, int] | bool:
    """``x op literal`` for raw values ``x`` at fixed-point ``scale``,
    exactly and without widening ``x``.

    Returns ``(op', constant)`` to compare the raw values with — a
    Python int, which NumPy compares exactly against any integer width,
    in range or not — or, for ``=`` and ``<>`` against a literal
    between two values ``x`` can take, the verdict on every row.  A
    literal finer than ``scale`` is floored: ``x < 1.005`` at scale 2
    is ``x <= 100``, ``x > 1.005`` is ``x > 100``.
    """
    if literal_scale <= scale:
        return op, raw * 10 ** (scale - literal_scale)
    floor, extra = divmod(raw, 10 ** (literal_scale - scale))
    if not extra:
        return op, floor
    if op is CompareOp.EQ or op is CompareOp.NE:
        return op is CompareOp.NE
    if op is CompareOp.LT or op is CompareOp.LE:
        return CompareOp.LE, floor
    return CompareOp.GT, floor


def _wrap(value) -> Expr:
    return value if isinstance(value, Expr) else lit(value)


# ---------------------------------------------------------------------------
# Vectorised evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    """Named input columns for expression evaluation.

    ``shared`` names the Arith nodes whose subtree occurs more than
    once among the expressions this context evaluates (node id ->
    subtree number, see :func:`repeated_subtrees`); each such subtree
    is computed once and held in ``memo`` for as long as the context
    lives — one Project or Aggregate over one relation.
    """

    columns: dict[str, TypedArray]
    nrows: int
    scalar_cache: dict[int, TypedArray] = field(default_factory=dict)
    subquery_executor: object | None = None
    shared: dict[int, int] = field(default_factory=dict)
    memo: dict[int, TypedArray] = field(default_factory=dict)

    def column(self, name: str) -> TypedArray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"expression references unknown column {name!r}; "
                f"available: {sorted(self.columns)}"
            ) from None


def repeated_subtrees(exprs) -> dict[int, int]:
    """The Arith nodes of ``exprs`` whose subtree is evaluated more
    than once, as ``{id(node): number}`` for an :class:`EvalContext`'s
    ``shared``; structurally equal subtrees get one number.

    Two equal subtrees have one operator at their roots, so the
    expressions are first scanned for an operator that occurs twice;
    most have none (Q6's ``l_extendedprice * l_discount``), and a span
    pays only that scan.  Otherwise the walk goes in evaluation order
    and does not enter a subtree met for the second time, since its
    memo answers for everything below it: only what would really be
    recomputed is marked.
    """
    ops: set[ArithOp] = set()
    stack = [e for e in exprs if not isinstance(e, ColumnRef)]
    while stack:
        node = stack.pop()
        if isinstance(node, Arith):
            if node.op in ops:
                break
            ops.add(node.op)
        stack.extend(node.children())
    else:
        return {}
    stack = list(reversed(exprs))
    numbers: dict = {}
    of_node: dict[int, int] = {}
    first: dict[int, Expr] = {}
    shared: dict[int, int] = {}
    while stack:
        node = stack.pop()
        if isinstance(node, Arith):
            n = _subtree_number(node, numbers, of_node)
            if n in first:
                shared[id(first[n])] = shared[id(node)] = n
                continue
            first[n] = node
        stack.extend(reversed(node.children()))
    return shared


def _subtree_number(node: Expr, numbers: dict, of_node: dict) -> int:
    """``node``'s number in ``numbers``, by hash-consing: Arith nodes,
    column references and literals are numbered by structure (an Arith
    node's signature holds its children's numbers), any other node by
    identity, so a subtree holding one is equal only to itself.  A
    plain recursive function, not a closure: a closure that calls
    itself is a reference cycle, left for the cyclic collector."""
    known = of_node.get(id(node))
    if known is not None:
        return known
    if isinstance(node, Arith):
        signature = (
            node.op,
            _subtree_number(node.left, numbers, of_node),
            _subtree_number(node.right, numbers, of_node),
        )
    elif isinstance(node, ColumnRef):
        signature = node.name
    elif isinstance(node, Literal):
        signature = (node.kind, node.scale, repr(node.raw))
    else:
        signature = ("node", id(node))
    known = numbers.setdefault(signature, len(numbers))
    of_node[id(node)] = known
    return known


def evaluate(expr: Expr, ctx: EvalContext) -> TypedArray:
    """Evaluate ``expr`` over all rows of the context."""
    if isinstance(expr, ColumnRef):
        return ctx.column(expr.name)

    if isinstance(expr, Literal):
        return _broadcast_literal(expr, ctx)

    if isinstance(expr, Arith):
        key = ctx.shared.get(id(expr)) if ctx.shared else None
        if key is None:
            return _eval_arith(expr, ctx)
        held = ctx.memo.get(key)
        if held is None:
            held = ctx.memo[key] = _eval_arith(expr, ctx)
        return held

    if isinstance(expr, Compare):
        return _eval_compare(expr, ctx)

    if isinstance(expr, BoolExpr):
        return _eval_bool(expr, ctx)

    if isinstance(expr, Like):
        return _eval_like(expr, ctx)

    if isinstance(expr, InList):
        return _eval_in(expr, ctx)

    if isinstance(expr, CaseWhen):
        return _eval_case(expr, ctx)

    if isinstance(expr, ExtractYear):
        return _eval_year(expr, ctx)

    if isinstance(expr, Substring):
        return _eval_substring(expr, ctx)

    if isinstance(expr, ScalarSubquery):
        return _eval_scalar_subquery(expr, ctx)

    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")


def _eval_year(expr: ExtractYear, ctx: EvalContext) -> TypedArray:
    days = evaluate(expr.column, ctx)
    dates = days.values.astype("datetime64[D]")
    years = dates.astype("datetime64[Y]").astype(np.int64) + 1970
    return TypedArray(years, Kind.INT, 0)


def _eval_substring(expr: Substring, ctx: EvalContext) -> TypedArray:
    column = evaluate(expr.column, ctx)
    if column.kind is not Kind.STR or column.heap is None:
        raise TypeError("SUBSTRING requires a string column")
    out_heap, code_map = column.heap.substrings(expr.start, expr.length)
    return TypedArray(code_map[column.values], Kind.STR, 0, out_heap)


def _repeat(value, nrows: int, dtype) -> np.ndarray:
    """``value`` on every row (:func:`_constant`)."""
    return _constant(np.array([value], dtype=dtype), nrows)


def _broadcast_literal(expr: Literal, ctx: EvalContext) -> TypedArray:
    if expr.kind is Kind.STR:
        # String literals stay as Python strings until compared against a
        # column, whose heap defines the code space.
        return TypedArray(_repeat(-1, ctx.nrows, np.int64), Kind.STR, 0, None)
    dtype = np.float64 if expr.kind is Kind.FLOAT else np.int64
    return TypedArray(
        _repeat(expr.raw, ctx.nrows, dtype), expr.kind, expr.scale
    )


def _align(left: TypedArray, right: TypedArray) -> tuple:
    """Common-kind, common-scale operands for add/sub/compare."""
    if left.kind is Kind.FLOAT or right.kind is Kind.FLOAT:
        return left.as_float(), right.as_float(), Kind.FLOAT, 0
    scale = max(left.scale, right.scale)
    return (
        left.rescaled(scale).values.astype(np.int64, copy=False),
        right.rescaled(scale).values.astype(np.int64, copy=False),
        Kind.INT,
        scale,
    )


def _eval_arith(expr: Arith, ctx: EvalContext) -> TypedArray:
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)

    if expr.op is ArithOp.DIV:
        denominator = right.as_float()
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                denominator == 0, 0.0, left.as_float() / denominator
            )
        return TypedArray(out, Kind.FLOAT, 0)

    if expr.op is ArithOp.MUL:
        if left.kind is Kind.FLOAT or right.kind is Kind.FLOAT:
            return TypedArray(
                left.as_float() * right.as_float(), Kind.FLOAT, 0
            )
        return TypedArray(
            left.values.astype(np.int64, copy=False)
            * right.values.astype(np.int64, copy=False),
            Kind.INT,
            left.scale + right.scale,
        )

    lvals, rvals, kind, scale = _align(left, right)
    out = lvals + rvals if expr.op is ArithOp.ADD else lvals - rvals
    return TypedArray(out, kind, scale)


_COMPARE_FUNCS = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


def _eval_compare(expr: Compare, ctx: EvalContext) -> TypedArray:
    # String comparisons against literals go through the heap.
    str_result = _try_string_compare(expr, ctx)
    if str_result is not None:
        return str_result
    op, left_node, right_node = expr.op, expr.left, expr.right
    if isinstance(left_node, Literal) and not isinstance(
        right_node, Literal
    ):
        op, left_node, right_node = op.flip(), right_node, left_node
    left = evaluate(left_node, ctx)
    if isinstance(right_node, Literal):
        verdict = _compare_literal(op, left, right_node)
        if verdict is not None:
            return TypedArray(verdict, Kind.BOOL)
    func = _COMPARE_FUNCS[op]
    right = evaluate(right_node, ctx)
    if left.kind is Kind.STR and right.kind is Kind.STR:
        if left.heap is not right.heap:
            return _compare_cross_heap(op, left, right)
        return TypedArray(func(left.values, right.values), Kind.BOOL)
    operands = _stored_pair(left, right) or _align(left, right)[:2]
    return TypedArray(func(*operands), Kind.BOOL)


def _compare_literal(
    op: CompareOp, column: TypedArray, literal: Literal
) -> np.ndarray | None:
    """``column op literal`` on the column's raw values — as stored
    when it is a stored integer — at the column's scale, exactly
    (:func:`compare_at_scale`); None unless both are fixed point."""
    if column.kind is not Kind.INT or literal.kind is not Kind.INT:
        return None
    exact = compare_at_scale(op, int(literal.raw), literal.scale,
                             column.scale)
    if isinstance(exact, bool):
        return np.full(len(column), exact)
    op, constant = exact
    values = column.stored()
    if values.dtype.kind != "i":
        values = column.values.astype(np.int64, copy=False)
    return _COMPARE_FUNCS[op](values, constant)


def _stored_pair(left: TypedArray, right: TypedArray) -> tuple | None:
    """Two integer operands of one scale as stored — NumPy compares
    mixed integer widths exactly — or None."""
    if (
        left.kind is not Kind.INT or right.kind is not Kind.INT
        or left.scale != right.scale
    ):
        return None
    lvals, rvals = left.stored(), right.stored()
    if lvals.dtype.kind != "i" or rvals.dtype.kind != "i":
        return None
    return lvals, rvals


def _try_string_compare(expr: Compare, ctx: EvalContext) -> TypedArray | None:
    """Column-vs-string-literal comparison via heap code lookup."""
    pairs = [
        (expr.left, expr.right, expr.op),
        (expr.right, expr.left, expr.op.flip()),
    ]
    for column_side, literal_side, op in pairs:
        if not isinstance(literal_side, Literal):
            continue
        if literal_side.kind is not Kind.STR:
            continue
        column = evaluate(column_side, ctx)
        if column.kind is not Kind.STR or column.heap is None:
            raise TypeError(
                f"string literal {literal_side.raw!r} compared against "
                "a non-string expression"
            )
        if op not in (CompareOp.EQ, CompareOp.NE):
            # Lexicographic order over heap strings.
            uniques = column.heap.string_array()
            target = literal_side.raw
            per_code = _COMPARE_FUNCS[op](uniques, target)
            return TypedArray(per_code[column.values], Kind.BOOL)
        code = column.heap.lookup(literal_side.raw)
        if code is None:
            match = np.zeros(len(column.values), dtype=np.bool_)
        else:
            match = column.values == code
        if op is CompareOp.NE:
            match = ~match
        return TypedArray(match, Kind.BOOL)
    return None


def _compare_cross_heap(op: CompareOp, left: TypedArray, right: TypedArray):
    """Compare two string columns with different heaps, by value."""
    lstr = left.heap.string_array()[left.values]
    rstr = right.heap.string_array()[right.values]
    return TypedArray(_COMPARE_FUNCS[op](lstr, rstr), Kind.BOOL)


def _eval_bool(expr: BoolExpr, ctx: EvalContext) -> TypedArray:
    if expr.op is BoolOp.NOT:
        inner = evaluate(expr.args[0], ctx)
        return TypedArray(
            ~inner.values.astype(np.bool_, copy=False), Kind.BOOL
        )
    out = None
    for arg in expr.args:
        part = evaluate(arg, ctx).values.astype(np.bool_, copy=False)
        if out is None:
            out = part
        elif expr.op is BoolOp.AND:
            out = out & part
        else:
            out = out | part
    return TypedArray(out, Kind.BOOL)


def _eval_like(expr: Like, ctx: EvalContext) -> TypedArray:
    column = evaluate(expr.column, ctx)
    if column.kind is not Kind.STR or column.heap is None:
        raise TypeError("LIKE requires a string column")
    # The pattern's verdict per *unique* heap string, mapped through the
    # codes — the strategy of AQUOMAN's regex accelerator and its 1 MB cache.
    mask = column.heap.verdicts(expr.pattern)[column.values]
    if expr.negated:
        mask = ~mask
    return TypedArray(mask, Kind.BOOL)


def _eval_in(expr: InList, ctx: EvalContext) -> TypedArray:
    column = evaluate(expr.column, ctx)
    if column.kind is Kind.STR:
        mask = column.heap.members(expr.options)[column.values]
    else:
        mask = np.isin(column.values, _in_options(expr.options, column))
    if expr.negated:
        mask = ~mask
    return TypedArray(mask, Kind.BOOL)


def _in_options(options: tuple, column: TypedArray) -> np.ndarray:
    """The IN-list options as values ``column`` can hold, as ``=`` sees
    them: an option between two values of the column's scale, or
    beyond int64, equals none of them, so it is dropped."""
    literals = [lit(option) for option in options]
    if column.kind is Kind.FLOAT:
        return np.array(
            [o.raw / 10**o.scale for o in literals], dtype=np.float64
        )
    raw = []
    for literal in literals:
        exact = compare_at_scale(
            CompareOp.EQ, int(literal.raw), literal.scale, column.scale
        )
        if isinstance(exact, tuple) and (
            -_INT64_MAX - 1 <= exact[1] <= _INT64_MAX
        ):
            raw.append(exact[1])
    return np.array(raw, dtype=np.int64)


def _eval_case(expr: CaseWhen, ctx: EvalContext) -> TypedArray:
    condition = evaluate(expr.condition, ctx).values.astype(
        np.bool_, copy=False
    )
    then = evaluate(expr.then, ctx)
    otherwise = evaluate(expr.otherwise, ctx)
    if then.kind is Kind.FLOAT or otherwise.kind is Kind.FLOAT:
        return TypedArray(
            np.where(condition, then.as_float(), otherwise.as_float()),
            Kind.FLOAT,
        )
    scale = max(then.scale, otherwise.scale)
    return TypedArray(
        np.where(
            condition,
            then.rescaled(scale).values,
            otherwise.rescaled(scale).values,
        ),
        Kind.INT,
        scale,
    )


def _eval_scalar_subquery(expr: ScalarSubquery, ctx: EvalContext):
    if ctx.subquery_executor is None:
        raise RuntimeError(
            "scalar subquery encountered but no subquery executor is set"
        )
    # per-context memo keyed by expression identity; the EvalContext
    # and the expression tree live in one process
    cached = ctx.scalar_cache.get(id(expr))
    if cached is None:
        cached = ctx.subquery_executor(expr.plan)  # -> TypedArray, length 1
        ctx.scalar_cache[id(expr)] = cached
    value = cached.values[0] if len(cached.values) else 0
    dtype = np.float64 if cached.kind is Kind.FLOAT else np.int64
    return TypedArray(
        _repeat(value, ctx.nrows, dtype), cached.kind, cached.scale
    )


def expr_depth(expr: Expr) -> int:
    """Height of the expression tree (used by the PE mapper)."""
    kids = expr.children()
    if not kids:
        return 1
    return 1 + max(expr_depth(k) for k in kids)
