"""Row Selector (Sec. VI-A, Fig. 6).

A vector unit evaluating predicates of the form
``Pr = F(CP0, ..., CPn-1)`` where each ``CPi`` is a comparison of one
column against a constant and ``F`` is a boolean combiner expressed as
an (andMask, orMask) pair per evaluator.  The evaluator count is a
hardware parameter (4 in the FPGA prototype; "4 to 6 are enough for
most of the filter predicates in TPC-H").

Predicates the selector cannot express — multi-column comparisons,
regex terms, deep boolean structure — are forwarded to the Row
Transformer (the paper's fallback), which the compiler models by
lowering them into the transform graph instead.

The selector writes Row-Mask Vectors into a circular buffer sized by
the flash queue depth; a full buffer stalls the flash pipeline, which
the device's cycle model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.sqlir.expr import (
    BoolExpr,
    BoolOp,
    ColumnRef,
    Compare,
    CompareOp,
    Expr,
    Kind,
    Literal,
    literal_at_scale,
)
from repro.storage.layout import ROW_VECTOR_SIZE
from repro.util.bitvector import BitVector

DEFAULT_N_EVALUATORS = 4
# Queue depth 128 x 8K rows -> 32K row vectors of mask (Sec. VI).
MASK_BUFFER_ROW_VECTORS = 32 * 1024


class PredicateOp(Enum):
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_NUMPY_PREDICATE = {
    PredicateOp.EQ: np.equal,
    PredicateOp.NE: np.not_equal,
    PredicateOp.LT: np.less,
    PredicateOp.LE: np.less_equal,
    PredicateOp.GT: np.greater,
    PredicateOp.GE: np.greater_equal,
}

_FROM_COMPARE = {
    CompareOp.EQ: PredicateOp.EQ,
    CompareOp.NE: PredicateOp.NE,
    CompareOp.LT: PredicateOp.LT,
    CompareOp.LE: PredicateOp.LE,
    CompareOp.GT: PredicateOp.GT,
    CompareOp.GE: PredicateOp.GE,
}


@dataclass(frozen=True)
class ColumnPredicate:
    """One CP term: ``column OP constant`` on the raw integer domain."""

    column: str
    op: PredicateOp
    constant: int

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """The term on the column as stored: a Python int compares
        exactly against any integer width, in range or not."""
        return _NUMPY_PREDICATE[self.op](values, int(self.constant))

    def __repr__(self) -> str:
        return f"CP({self.column} {self.op.value} {self.constant})"


@dataclass(frozen=True)
class PredicateProgram:
    """A conjunction of CP terms (the common TPC-H combiner F = AND).

    Disjunctive structure stays in the Row Transformer; the selector's
    job is the fast, high-selectivity first cut.
    """

    terms: tuple[ColumnPredicate, ...]

    @property
    def columns(self) -> list[str]:
        return list(dict.fromkeys(t.column for t in self.terms))

    def __len__(self) -> int:
        return len(self.terms)


class SelectorOverflow(Exception):
    """More CP terms than the selector has evaluators."""


def extract_predicate_program(
    predicate: Expr,
    n_evaluators: int = DEFAULT_N_EVALUATORS,
    string_columns: frozenset[str] = frozenset(),
    column_scales: dict[str, int] | None = None,
) -> tuple[PredicateProgram, Expr | None]:
    """Split a filter into (selector program, leftover expression).

    Takes the top-level AND conjuncts that are single-column constant
    comparisons on non-string columns, up to the evaluator budget;
    everything else is returned as the leftover for the Row
    Transformer (None when fully absorbed).

    The selector compares *raw* fixed-point values, so literals are
    re-expressed at the column's scale via ``column_scales`` (e.g.
    ``l_quantity < 24`` on a scale-2 decimal becomes ``< 2400``); a
    literal finer than the column's scale is forwarded instead.
    """
    conjuncts = _flatten_and(predicate)
    selector_terms: list[ColumnPredicate] = []
    leftover: list[Expr] = []

    for term in conjuncts:
        cp = _as_column_predicate(term, string_columns, column_scales)
        if cp is not None and len(selector_terms) < n_evaluators:
            selector_terms.append(cp)
        else:
            leftover.append(term)

    remainder: Expr | None
    if not leftover:
        remainder = None
    elif len(leftover) == 1:
        remainder = leftover[0]
    else:
        remainder = BoolExpr(BoolOp.AND, tuple(leftover))
    return PredicateProgram(tuple(selector_terms)), remainder


def _flatten_and(expr: Expr) -> list[Expr]:
    if isinstance(expr, BoolExpr) and expr.op is BoolOp.AND:
        flat: list[Expr] = []
        for arg in expr.args:
            flat.extend(_flatten_and(arg))
        return flat
    return [expr]


def _as_column_predicate(
    expr: Expr,
    string_columns: frozenset[str],
    column_scales: dict[str, int] | None = None,
) -> ColumnPredicate | None:
    if not isinstance(expr, Compare):
        return None
    for column_side, literal_side, flipped in (
        (expr.left, expr.right, False), (expr.right, expr.left, True)
    ):
        if isinstance(column_side, ColumnRef) and isinstance(
            literal_side, Literal
        ):
            op = expr.op.flip() if flipped else expr.op
            if literal_side.kind is Kind.STR:
                return None  # string equality goes through the regex path
            if column_side.name in string_columns:
                return None
            constant = int(literal_side.raw)
            if column_scales is not None:
                constant = literal_at_scale(
                    literal_side, column_scales.get(column_side.name, 0)
                )
                if constant is None:
                    return None  # finer than the column can express
            # Without scale info the literal is taken as already raw —
            # callers that build programs by hand match scales themselves.
            return ColumnPredicate(
                column_side.name, _FROM_COMPARE[op], constant
            )
    return None


class RowSelector:
    """Evaluates a PredicateProgram into Row-Mask Vectors."""

    def __init__(self, n_evaluators: int = DEFAULT_N_EVALUATORS):
        self.n_evaluators = n_evaluators
        self.masks_produced = 0
        self.rows_scanned = 0

    def select(
        self,
        program: PredicateProgram,
        columns: dict[str, np.ndarray],
        nrows: int,
        base_mask: BitVector | None = None,
    ) -> BitVector:
        """AND all CP terms (and an optional incoming mask) over the rows.

        ``columns`` hold the CP columns as stored; each term compares at
        that width.  The incoming mask models ``maskSrc`` from a
        previous Table Task or from host software.
        """
        if len(program) > self.n_evaluators:
            raise SelectorOverflow(
                f"{len(program)} CP terms > {self.n_evaluators} evaluators"
            )
        mask = None if base_mask is None else base_mask.bits.copy()
        for term in program.terms:
            verdict = term.evaluate(columns[term.column])
            if mask is None:
                mask = verdict
            else:
                mask &= verdict
        if mask is None:
            mask = np.ones(nrows, dtype=np.bool_)
        self.rows_scanned += nrows
        self.masks_produced += -(-nrows // ROW_VECTOR_SIZE)
        return BitVector(mask)

    @staticmethod
    def mask_row_vectors(mask: BitVector) -> np.ndarray:
        """Per-row-vector any-selected flags (page-skip input)."""
        return mask.group_any(ROW_VECTOR_SIZE)
