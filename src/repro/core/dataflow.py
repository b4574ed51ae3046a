"""Transformation dataflow graphs and their mapping onto the PE array.

The Row Transformer executes a Project's expressions as a layered
dataflow graph (paper Fig. 10): input columns enter at the top, each
layer is one PE, values move only south (to the next layer) and east
(within a PE's circular schedule).  The compiler here performs the
paper's two rewrites:

- **balancing** — values needed below their producing layer ride PASS
  instructions through the intervening PEs;
- **forking** — a value consumed more than once is captured into a PE
  register and re-emitted (the paper's FORK/Copy nodes).

Fixed-point scales are resolved at compile time: aligning add/sub/compare
operands inserts multiply-by-10^k immediates, so the emitted programs
compute the *exact* raw integers the software engine computes.

``EXTRACT(year)`` lowers to Hinnant's integer civil-calendar formula
(14 ALU ops, exact for all non-negative epoch days), so even the date
group keys of Q7/Q8/Q9 run on the integer-only ISA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.pe import N_REGISTERS, PE, Instruction, Opcode, PEProgram
from repro.sqlir.expr import (
    Arith,
    ArithOp,
    BoolExpr,
    BoolOp,
    CaseWhen,
    ColumnRef,
    Compare,
    CompareOp,
    Expr,
    ExtractYear,
    InList,
    Kind,
    Like,
    Literal,
    Substring,
    TypedArray,
    compare_at_scale,
)


class UnsupportedTransform(Exception):
    """The expression cannot run on the integer PE array.

    Raised for float division, string operators that were not
    pre-lowered to bit columns, and scalar subqueries; the caller
    decides whether to pre-process or keep the work on the host.
    """


# ---------------------------------------------------------------------------
# Graph values
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Value:
    """One dataflow value: an input column, or an op over other values.

    Hashes and compares by identity, so it keys the mapper's tables."""

    op: str  # "input" | "lit" | alu op name
    name: str = ""          # input column name (op == "input")
    literal: int = 0        # immediate (op == "lit", or alu with imm)
    operands: tuple = ()    # upstream Values
    imm: int | None = None  # immediate second operand of an ALU op
    scale: int = 0
    height: int = 0

    def __repr__(self) -> str:
        if self.op == "input":
            return f"In({self.name})"
        if self.op == "lit":
            return f"Lit({self.literal})"
        return f"{self.op}@{self.height}"


_ALU_OPCODES = {
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "mul": Opcode.MUL,
    "div": Opcode.DIV,
    "eq": Opcode.EQ,
    "lt": Opcode.LT,
    "gt": Opcode.GT,
}

# Each comparison as an ALU op, and whether its 0/1 result is negated.
_COMPARE_ALU = {
    CompareOp.EQ: ("eq", False),
    CompareOp.NE: ("eq", True),
    CompareOp.LT: ("lt", False),
    CompareOp.GE: ("lt", True),
    CompareOp.GT: ("gt", False),
    CompareOp.LE: ("gt", True),
}

_NUMPY_ALU = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: np.where(b != 0, a // np.where(b == 0, 1, b), 0),
    "eq": lambda a, b: (a == b).astype(np.int64),
    "lt": lambda a, b: (a < b).astype(np.int64),
    "gt": lambda a, b: (a > b).astype(np.int64),
}


class GraphBuilder:
    """Lowers sqlir expressions into :class:`Value` graphs."""

    def __init__(self, input_scales: dict[str, int] | None = None):
        self.input_scales = input_scales or {}
        self._memo: dict[int, Value] = {}
        self._inputs: dict[str, Value] = {}

    # -- public -----------------------------------------------------------

    def lower(self, expr: Expr) -> Value:
        # Lowering memo keyed by expression identity; the expression
        # tree and the memo never leave the process.
        memoed = self._memo.get(id(expr))
        if memoed is not None:
            return memoed
        value = self._lower(expr)
        self._memo[id(expr)] = value
        return value

    def input_value(self, name: str) -> Value:
        value = self._inputs.get(name)
        if value is None:
            value = Value(
                "input", name=name, scale=self.input_scales.get(name, 0)
            )
            self._inputs[name] = value
        return value

    # -- lowering ------------------------------------------------------------

    def _lower(self, expr: Expr) -> Value:
        if isinstance(expr, ColumnRef):
            return self.input_value(expr.name)

        if isinstance(expr, Literal):
            if expr.kind is Kind.STR:
                raise UnsupportedTransform(
                    "string literal reached the PE array"
                )
            if expr.kind is Kind.FLOAT:
                raise UnsupportedTransform("float literal on the PE array")
            return Value("lit", literal=int(expr.raw), scale=expr.scale)

        if isinstance(expr, Arith):
            return self._lower_arith(expr)

        if isinstance(expr, Compare):
            return self._lower_compare(expr)

        if isinstance(expr, BoolExpr):
            return self._lower_bool(expr)

        if isinstance(expr, CaseWhen):
            return self._lower_case(expr)

        if isinstance(expr, ExtractYear):
            return self._lower_year(expr)

        raise UnsupportedTransform(
            f"{type(expr).__name__} has no PE lowering"
        )

    def _alu(self, op: str, a: Value, b: Value, scale: int) -> Value:
        """Combine two values; fold literal operands into immediates."""
        if a.op == "lit" and b.op == "lit":
            result = int(_NUMPY_ALU[op](np.int64(a.literal),
                                        np.int64(b.literal)))
            return Value("lit", literal=result, scale=scale)
        if b.op == "lit":
            return Value(
                op,
                operands=(a,),
                imm=b.literal,
                scale=scale,
                height=a.height + 1,
            )
        if a.op == "lit":
            flipped = {"lt": "gt", "gt": "lt", "eq": "eq"}.get(op)
            if flipped is not None:
                return Value(
                    flipped,
                    operands=(b,),
                    imm=a.literal,
                    scale=scale,
                    height=b.height + 1,
                )
            if op == "add" or op == "mul":
                return Value(
                    op,
                    operands=(b,),
                    imm=a.literal,
                    scale=scale,
                    height=b.height + 1,
                )
            # lit - x: negate then add (one extra node).
            if op == "sub":
                neg = Value(
                    "mul", operands=(b,), imm=-1, scale=b.scale,
                    height=b.height + 1,
                )
                return Value(
                    "add",
                    operands=(neg,),
                    imm=a.literal,
                    scale=scale,
                    height=neg.height + 1,
                )
            raise UnsupportedTransform(f"literal {op} value")
        return Value(
            op,
            operands=(a, b),
            scale=scale,
            height=max(a.height, b.height) + 1,
        )

    def _rescale(self, value: Value, scale: int) -> Value:
        if value.scale == scale:
            return value
        if value.scale > scale:
            raise UnsupportedTransform("cannot rescale a value down")
        factor = 10 ** (scale - value.scale)
        if value.op == "lit":
            return Value("lit", literal=value.literal * factor, scale=scale)
        return Value(
            "mul",
            operands=(value,),
            imm=factor,
            scale=scale,
            height=value.height + 1,
        )

    def _aligned(self, left: Expr, right: Expr) -> tuple[Value, Value, int]:
        a, b = self.lower(left), self.lower(right)
        scale = max(a.scale, b.scale)
        return self._rescale(a, scale), self._rescale(b, scale), scale

    def _lower_arith(self, expr: Arith) -> Value:
        if expr.op is ArithOp.DIV:
            raise UnsupportedTransform(
                "division promotes to float; not a PE op in this plan"
            )
        if expr.op is ArithOp.MUL:
            a, b = self.lower(expr.left), self.lower(expr.right)
            return self._alu("mul", a, b, a.scale + b.scale)
        a, b, scale = self._aligned(expr.left, expr.right)
        op = "add" if expr.op is ArithOp.ADD else "sub"
        return self._alu(op, a, b, scale)

    def _lower_compare(self, expr: Compare) -> Value:
        op = expr.op
        a, b = self.lower(expr.left), self.lower(expr.right)
        if a.op == "lit" and b.op != "lit":
            a, b, op = b, a, op.flip()
        if b.op == "lit" and a.op != "lit":
            # Against a constant: at the value's own scale, never
            # widened (a finer literal is floored, as on the host).
            exact = compare_at_scale(op, b.literal, b.scale, a.scale)
            if isinstance(exact, bool):
                return Value("lit", literal=int(exact), scale=0)
            op, constant = exact
            b = Value("lit", literal=constant, scale=a.scale)
        else:
            scale = max(a.scale, b.scale)
            a, b = self._rescale(a, scale), self._rescale(b, scale)
        name, negate = _COMPARE_ALU[op]
        value = self._alu(name, a, b, 0)
        if negate:
            # 1 - x on a 0/1 value: mul -1, add 1.
            neg = Value("mul", operands=(value,), imm=-1, scale=0,
                        height=value.height + 1)
            value = Value("add", operands=(neg,), imm=1, scale=0,
                          height=neg.height + 1)
        return value

    def _lower_bool(self, expr: BoolExpr) -> Value:
        if expr.op is BoolOp.NOT:
            inner = self.lower(expr.args[0])
            neg = Value("mul", operands=(inner,), imm=-1, scale=0,
                        height=inner.height + 1)
            return Value("add", operands=(neg,), imm=1, scale=0,
                         height=neg.height + 1)
        values = [self.lower(a) for a in expr.args]
        acc = values[0]
        for nxt in values[1:]:
            if expr.op is BoolOp.AND:
                acc = self._alu("mul", acc, nxt, 0)
            else:  # OR over 0/1 values: a + b - a*b
                prod = self._alu("mul", acc, nxt, 0)
                total = self._alu("add", acc, nxt, 0)
                acc = self._alu("sub", total, prod, 0)
        return acc

    def _lower_case(self, expr: CaseWhen) -> Value:
        """CASE c THEN a ELSE b  ==>  c*(a-b) + b   (c is 0/1)."""
        cond = self.lower(expr.condition)
        a = self.lower(expr.then)
        b = self.lower(expr.otherwise)
        scale = max(a.scale, b.scale)
        a, b = self._rescale(a, scale), self._rescale(b, scale)
        diff = self._alu("sub", a, b, scale)
        picked = self._alu("mul", cond, diff, scale)
        return self._alu("add", picked, b, scale)

    def _lower_year(self, expr: ExtractYear) -> Value:
        """Epoch days -> civil year (Hinnant's algorithm, integer-only).

        All intermediate values are non-negative for days >= -719468
        (year 0), so truncating PE division equals floor division.
        """
        days = self.lower(expr.column)

        def alu(op, a, b=None, imm=None):
            if imm is not None:
                return self._alu(op, a, Value("lit", literal=imm), 0)
            return self._alu(op, a, b, 0)

        z = alu("add", days, imm=719468)
        era = alu("div", z, imm=146097)
        era_days = alu("mul", era, imm=146097)
        doe = self._alu("sub", z, era_days, 0)

        d1 = alu("div", doe, imm=1460)
        d2 = alu("div", doe, imm=36524)
        d3 = alu("div", doe, imm=146096)
        t1 = self._alu("sub", doe, d1, 0)
        t2 = self._alu("add", t1, d2, 0)
        t3 = self._alu("sub", t2, d3, 0)
        yoe = alu("div", t3, imm=365)

        era400 = alu("mul", era, imm=400)
        y = self._alu("add", yoe, era400, 0)

        y365 = alu("mul", yoe, imm=365)
        y4 = alu("div", yoe, imm=4)
        y100 = alu("div", yoe, imm=100)
        s1 = self._alu("add", y365, y4, 0)
        s2 = self._alu("sub", s1, y100, 0)
        doy = self._alu("sub", doe, s2, 0)

        mp5 = alu("mul", doy, imm=5)
        mp5b = alu("add", mp5, imm=2)
        mp = alu("div", mp5b, imm=153)
        is_next_year = alu("gt", mp, imm=9)
        return self._alu("add", y, is_next_year, 0)


# ---------------------------------------------------------------------------
# Layered graph + PE mapping
# ---------------------------------------------------------------------------


@dataclass
class LayerProgram:
    """One systolic layer: its PE program and value routing."""

    program: PEProgram
    consume_order: list[Value]   # values popped from the input stream
    emit_order: list[Value]      # values pushed to the next layer


@dataclass
class TransformGraph:
    """A compiled Project: output names, value graph, layer programs."""

    output_names: list[str]
    outputs: list[Value]
    output_scales: list[int]
    layers: list[LayerProgram]
    input_order: list[str]       # column stream order for the Table Reader

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def total_instructions(self) -> int:
        return sum(len(layer.program) for layer in self.layers)

    @property
    def max_layer_instructions(self) -> int:
        return max((len(layer.program) for layer in self.layers), default=0)

    def cycles_per_row_vector(self, n_pes: int) -> int:
        """Initiation interval of the systolic pipeline.

        With at least one PE per layer the array is fully pipelined and
        the interval is the longest layer program; with fewer PEs each
        executes several layers back-to-back.
        """
        if n_pes <= 0:
            raise ValueError("need at least one PE")
        if not self.layers:
            return 1
        if n_pes >= self.n_layers:
            return self.max_layer_instructions
        per_pe = -(-self.n_layers // n_pes)
        lengths = sorted(
            (len(layer.program) for layer in self.layers), reverse=True
        )
        return sum(lengths[:per_pe])

    def execute(self, columns: dict[str, np.ndarray]) -> list[np.ndarray]:
        """Run the layer programs over real column data.

        Returns the output columns in ``output_names`` order, as raw
        int64 arrays at ``output_scales``.
        """
        if not self.layers:
            return [
                np.asarray(columns[v.name], dtype=np.int64)
                for v in self.outputs
            ]
        stream = [
            np.asarray(columns[v.name], dtype=np.int64)
            for v in self.layers[0].consume_order
        ]
        for layer in self.layers:
            stream = PE(layer.program).run(stream)
        result_by_value = dict(zip(self.layers[-1].emit_order, stream))
        return [result_by_value[v] for v in self.outputs]


def build_transform_graph(
    outputs: list[tuple[str, Expr]],
    input_scales: dict[str, int] | None = None,
    imem_size: int | None = None,
) -> TransformGraph:
    """Lower Project outputs into a layered PE mapping."""
    builder = GraphBuilder(input_scales)
    names = [n for n, _ in outputs]
    values = [builder.lower(e) for _, e in outputs]
    return map_to_pes(names, values, imem_size=imem_size)


# ---------------------------------------------------------------------------
# One pipeline stage: regex bit columns, PE graph, columns read
# ---------------------------------------------------------------------------


class BitColumn(NamedTuple):
    """A string predicate the regex accelerator turns into a one-bit
    column (as the Table Reader does) before the PE array sees it."""

    name: str        # "@regex<n>", numbered in walk order
    match: str       # "like" | "in" | "equals"
    column: str      # the string column it reads
    arg: object      # LIKE pattern, IN options or the compared string
    negated: bool


@dataclass
class StageLowering:
    """A stage's expressions after one walk, ready to run.

    ``refs`` are the stream columns the stage reads, in the order their
    flash pages are charged: output by output, each output's sorted.
    ``bits`` are the regex accelerator's bit columns in walk order;
    ``passthrough`` maps each output that renames a column (a stream
    column or a bit column) to it.  The other outputs run on ``graph``
    — or, when one of them has no PE lowering, ``graph`` is None and
    ``fallback`` holds them with their string predicates replaced by
    bit-column references, for the host evaluator.
    """

    outputs: tuple[tuple[str, Expr], ...]
    refs: list[str]
    bits: list[BitColumn]
    passthrough: dict[str, str]
    graph: TransformGraph | None = None
    fallback: list[tuple[str, Expr]] | None = None


def _bit_column(
    expr: Expr, columns: dict[str, TypedArray], name: str
) -> BitColumn | None:
    """``expr`` as a regex bit column, if it is a string predicate the
    accelerator takes: LIKE, IN over a string column, or (in)equality
    against a string literal."""
    if isinstance(expr, Like):
        if isinstance(expr.column, ColumnRef):
            return BitColumn(name, "like", expr.column.name, expr.pattern,
                             expr.negated)
    elif isinstance(expr, InList):
        column = (
            columns.get(expr.column.name)
            if isinstance(expr.column, ColumnRef) else None
        )
        if column is not None and column.kind is Kind.STR:
            return BitColumn(name, "in", expr.column.name, expr.options,
                             expr.negated)
    elif isinstance(expr, Compare) and expr.op in (CompareOp.EQ,
                                                   CompareOp.NE):
        for col_side, lit_side in (
            (expr.left, expr.right), (expr.right, expr.left)
        ):
            if (
                isinstance(col_side, ColumnRef)
                and isinstance(lit_side, Literal)
                and lit_side.kind is Kind.STR
            ):
                return BitColumn(name, "equals", col_side.name,
                                 lit_side.raw, expr.op is CompareOp.NE)
    return None


class _StageBuilder(GraphBuilder):
    """:class:`GraphBuilder` over a stream's columns that also takes
    string predicates to bit columns and notes every column read.

    No lowering memo: every occurrence of a subexpression is its own
    graph node, as in an expression rebuilt around its bit columns.
    """

    def __init__(self, columns: dict[str, TypedArray]):
        super().__init__()
        self.columns = columns
        self.bits: list[BitColumn] = []
        self.refs: set[str] = set()

    def lower(self, expr: Expr) -> Value:
        return self._lower(expr)

    def input_value(self, name: str) -> Value:
        value = self._inputs.get(name)
        if value is None:
            array = self.columns.get(name)
            scale = (
                array.scale
                if array is not None and array.kind is Kind.INT else 0
            )
            value = self._inputs[name] = Value(
                "input", name=name, scale=scale
            )
        return value

    def lower_output(self, expr: Expr) -> Value | str:
        """An output's graph value, or the column it renames."""
        if isinstance(expr, ColumnRef):
            self.refs.add(expr.name)
            return expr.name
        bit = self._bit(expr)
        return bit.name if bit is not None else self._lower(expr)

    def _bit(self, expr: Expr) -> BitColumn | None:
        if not isinstance(expr, (Like, InList, Compare)):
            return None
        bit = _bit_column(expr, self.columns, f"@regex{len(self.bits) + 1}")
        if bit is not None:
            self.bits.append(bit)
            self.refs.add(bit.column)
        return bit

    def _lower(self, expr: Expr) -> Value:
        if isinstance(expr, ColumnRef):
            self.refs.add(expr.name)
            return self.input_value(expr.name)
        bit = self._bit(expr)
        if bit is not None:
            return self.input_value(bit.name)
        return super()._lower(expr)


def lower_stage(
    outputs: tuple[tuple[str, Expr], ...],
    columns: dict[str, TypedArray],
    imem_size: int | None = None,
) -> StageLowering:
    """Walk a stage's ``outputs`` once over a stream's ``columns``.

    The same walk finds the columns read, the bit columns and the PE
    graph; only a stage that cannot run on the PE array is walked again,
    for its host fallback.
    """
    builder = _StageBuilder(columns)
    refs: list[str] = []
    passthrough: dict[str, str] = {}
    names: list[str] = []
    values: list[Value] = []
    try:
        for name, expr in outputs:
            builder.refs = set()
            value = builder.lower_output(expr)
            refs.extend(sorted(builder.refs))
            if isinstance(value, str):
                passthrough[name] = value
            else:
                names.append(name)
                values.append(value)
        graph = map_to_pes(names, values, imem_size) if values else None
    except UnsupportedTransform:
        return _host_lowering(outputs, columns)
    return StageLowering(
        outputs, list(dict.fromkeys(refs)), builder.bits, passthrough,
        graph,
    )


def _host_lowering(
    outputs: tuple[tuple[str, Expr], ...],
    columns: dict[str, TypedArray],
) -> StageLowering:
    """The stage for the host evaluator: its string predicates still
    become bit columns, the rest is evaluated as written."""
    refs: list[str] = []
    bits: list[BitColumn] = []
    passthrough: dict[str, str] = {}
    fallback: list[tuple[str, Expr]] = []
    for name, expr in outputs:
        refs.extend(sorted(expr.column_refs()))
        lowered = _replace_bits(expr, columns, bits)
        if isinstance(lowered, ColumnRef):
            passthrough[name] = lowered.name
        else:
            fallback.append((name, lowered))
    return StageLowering(
        outputs, list(dict.fromkeys(refs)), bits, passthrough,
        fallback=fallback,
    )


def _replace_bits(
    expr: Expr, columns: dict[str, TypedArray], bits: list[BitColumn]
) -> Expr:
    """``expr`` with every string predicate replaced by a reference to
    its bit column (appended to ``bits``)."""
    bit = _bit_column(expr, columns, f"@regex{len(bits) + 1}")
    if bit is not None:
        bits.append(bit)
        return ColumnRef(bit.name)
    kids = expr.children()
    if not kids:
        return expr
    return _rebuild(expr, [_replace_bits(c, columns, bits) for c in kids])


def _rebuild(expr: Expr, children: list[Expr]) -> Expr:
    """Clone an expression node with replaced children."""
    if isinstance(expr, Arith):
        return Arith(expr.op, children[0], children[1])
    if isinstance(expr, Compare):
        return Compare(expr.op, children[0], children[1])
    if isinstance(expr, BoolExpr):
        return BoolExpr(expr.op, tuple(children))
    if isinstance(expr, CaseWhen):
        return CaseWhen(children[0], children[1], children[2])
    if isinstance(expr, ExtractYear):
        return ExtractYear(children[0])
    if isinstance(expr, Substring):
        return Substring(children[0], expr.start, expr.length)
    if isinstance(expr, Like):
        return Like(children[0], expr.pattern, expr.negated)
    if isinstance(expr, InList):
        return InList(children[0], expr.options, expr.negated)
    raise TypeError(f"cannot rebuild {type(expr).__name__}")


def map_to_pes(
    names: list[str],
    outputs: list[Value],
    imem_size: int | None = None,
) -> TransformGraph:
    """Assign every value to a layer and emit one PE program per layer."""
    for v in outputs:
        if v.op == "lit":
            raise UnsupportedTransform(
                "constant output column (nothing to stream); "
                "the host fills in constants"
            )
    n_layers = max((v.height for v in outputs), default=0)

    # needs[l] = ordered, de-duplicated values layer l must emit.
    emit = list(dict.fromkeys(outputs))

    layers_rev: list[LayerProgram] = []
    for level in range(n_layers, 0, -1):
        program, consume = _compile_layer(emit, level, imem_size)
        layers_rev.append(
            LayerProgram(program=program, consume_order=consume,
                         emit_order=emit)
        )
        emit = consume

    layers = list(reversed(layers_rev))
    input_order: list[str] = []
    if layers:
        for v in layers[0].consume_order:
            if v.op != "input":
                raise AssertionError(
                    f"non-input value {v!r} at the top of the graph"
                )
            input_order.append(v.name)
    else:
        input_order = [v.name for v in outputs]

    return TransformGraph(
        output_names=names,
        outputs=outputs,
        output_scales=[v.scale for v in outputs],
        layers=layers,
        input_order=input_order,
    )


# Every register-shaped instruction a layer program uses, built (and
# checked) once; only ALU ops with an immediate are built per program.
_PASS_TO = [Instruction(Opcode.PASS, rd=r) for r in range(N_REGISTERS)]
_PASS_FROM = [Instruction(Opcode.PASS, rs=r) for r in range(N_REGISTERS)]
_STORE = Instruction(Opcode.STORE)
_ALU_TO = {
    (op, r): Instruction(opcode, rd=r)
    for op, opcode in _ALU_OPCODES.items() for r in range(N_REGISTERS)
}


def _compile_layer(
    emit: list[Value], level: int, imem_size: int | None
) -> tuple[PEProgram, list[Value]]:
    """Instructions for one layer that must emit ``emit`` in order.

    Values produced *at* this level compute; everything else rides a
    PASS.  A value appearing several times in ``emit`` is computed or
    consumed once, captured into a PE register, and re-emitted from it
    (the paper's FORK) — each upstream value is consumed exactly once.
    Returns the program and the ordered upstream consumption.
    """
    instructions: list[Instruction] = []
    consume: list[Value] = []

    forked: set[Value] = set()
    if len(set(emit)) < len(emit):
        seen: set[Value] = set()
        for v in emit:
            if v in seen:
                forked.add(v)
            seen.add(v)
    fork_register: dict[Value, int] = {}
    next_register = 1

    for v in emit:
        reg = fork_register.get(v)
        if reg is not None:
            # Later occurrence of a forked value.
            instructions.append(_PASS_FROM[reg])
            continue

        dest = 0
        if v in forked:
            if next_register >= N_REGISTERS:
                raise UnsupportedTransform(
                    "layer needs more than 7 fork registers"
                )
            dest = fork_register[v] = next_register
            next_register += 1

        if v.op not in ("input", "lit") and v.height == level:
            if v.imm is not None:
                consume.append(v.operands[0])
                instructions.append(Instruction(
                    _ALU_OPCODES[v.op], rd=dest, rs=0, imm=v.imm
                ))
            else:
                a, b = v.operands
                # ALU computes rf[0](second pop) OP opReg(first pop),
                # so stream order is [b, a] for a OP b.
                consume.append(b)
                instructions.append(_STORE)
                consume.append(a)
                instructions.append(_ALU_TO[v.op, dest])
        else:
            consume.append(v)
            instructions.append(_PASS_TO[dest])

        if dest:
            instructions.append(_PASS_FROM[dest])

    for v in consume:
        if v.op == "lit":
            raise AssertionError("literals are immediates, never streamed")

    size = imem_size if imem_size is not None else max(8, len(instructions))
    return PEProgram(instructions, imem_size=size), consume


def evaluate_value(value: Value, columns: dict[str, np.ndarray]) -> np.ndarray:
    """Reference (non-PE) evaluation of a value graph, for validation."""
    memo: dict[int, np.ndarray] = {}

    def rec(v: Value) -> np.ndarray:
        hit = memo.get(id(v))
        if hit is not None:
            return hit
        if v.op == "input":
            out = np.asarray(columns[v.name], dtype=np.int64)
        elif v.op == "lit":
            out = np.int64(v.literal)
        else:
            a = rec(v.operands[0])
            b = np.int64(v.imm) if v.imm is not None else rec(v.operands[1])
            out = _NUMPY_ALU[v.op](a, b)
        memo[id(v)] = out
        return out

    return rec(value)
