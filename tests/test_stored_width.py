"""Integer compares at the width a column is stored in.

The host's ``Compare`` and the Row Selector's CP terms read a narrow
column as stored — no int64 copy — and a literal as a Python int at the
column's scale.  Both must agree with the reference that widens every
operand to int64 at a common scale first, for every operator, both
operand orders, and literals inside, at and beyond the column's dtype.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.row_selector import (
    ColumnPredicate,
    PredicateOp,
    PredicateProgram,
    RowSelector,
)
from repro.engine.operators.relational import filter_relation
from repro.engine.relation import Relation, SelectedArray
from repro.sqlir.expr import (
    Compare,
    CompareOp,
    EvalContext,
    Kind,
    Literal,
    TypedArray,
    col,
    evaluate,
    lit,
)
from repro.util.bitvector import BitVector

DTYPES = (np.int8, np.int16, np.int32, np.int64)
REFERENCE = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}
# Literals small enough that the reference's widening never overflows.
LITERAL_BOUND = 10**12


@st.composite
def stored_columns(draw, size=None, scale=None, headroom=2):
    """``(stored values, scale)``: any integer width, its extremes and
    their neighbours drawn often.  int64 values keep ``headroom``
    decimal digits free for the reference to rescale them into."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    info = np.iinfo(dtype)
    scale = draw(st.integers(0, 2)) if scale is None else scale
    lo, hi = int(info.min), int(info.max)
    if dtype == np.int64:
        lo, hi = lo // 10**headroom, hi // 10**headroom
    value = st.integers(lo, hi) | st.sampled_from(
        [lo, lo + 1, -1, 0, 1, hi - 1, hi]
    )
    n = draw(st.integers(0, 40)) if size is None else size
    return np.array(draw(st.lists(value, min_size=n, max_size=n)),
                    dtype=dtype), scale


def lifted(values: np.ndarray, scale: int) -> TypedArray:
    """A stored column as a scan hands it on: int64 shared, narrower
    columns a pending lift (what ``typed_array_from_column`` makes)."""
    if values.dtype == np.int64:
        return TypedArray(values, Kind.INT, scale)
    return SelectedArray(values, None, np.int64, Kind.INT, scale)


def widened(values: np.ndarray, scale: int, to: int) -> np.ndarray:
    return values.astype(np.int64) * 10 ** (to - scale)


def literals(column_scale: int):
    """Literals inside, at and beyond any dtype's range, coarser than,
    at and finer than the column's scale."""
    return st.builds(
        Literal,
        st.integers(-LITERAL_BOUND, LITERAL_BOUND) | st.sampled_from(
            [-129, -128, 127, 128, -32769, 32767, 2**31, -(2**31) - 1]
        ),
        st.just(Kind.INT),
        st.integers(0, column_scale + 1),
    )


def compare(op, left, right, columns) -> np.ndarray:
    nrows = len(next(iter(columns.values())))
    out = evaluate(Compare(op, left, right), EvalContext(columns, nrows))
    assert out.kind is Kind.BOOL
    return out.values


class TestCompareAtStoredWidth:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), stored_columns(), st.sampled_from(list(CompareOp)))
    def test_column_against_literal(self, data, column, op):
        values, scale = column
        literal = data.draw(literals(scale))
        common = max(scale, literal.scale)
        colw = widened(values, scale, common)
        litw = np.int64(literal.raw * 10 ** (common - literal.scale))
        columns = {"c": lifted(values, scale)}
        assert np.array_equal(
            compare(op, col("c"), literal, columns),
            REFERENCE[op](colw, litw),
        )
        assert np.array_equal(  # the literal on the left
            compare(op, literal, col("c"), columns),
            REFERENCE[op](litw, colw),
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(list(CompareOp)))
    def test_column_against_column_of_mixed_widths(self, data, op):
        n = data.draw(st.integers(0, 40))
        left, lscale = data.draw(stored_columns(size=n))
        same_scale = data.draw(st.booleans())
        right, rscale = data.draw(
            stored_columns(size=n, scale=lscale if same_scale else None)
        )
        common = max(lscale, rscale)
        columns = {"a": lifted(left, lscale), "b": lifted(right, rscale)}
        assert np.array_equal(
            compare(op, col("a"), col("b"), columns),
            REFERENCE[op](widened(left, lscale, common),
                          widened(right, rscale, common)),
        )

    def test_literal_beyond_int64_compares_exactly(self):
        values = np.array(
            [np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]
        )
        columns = {"c": TypedArray(values, Kind.INT, 0)}
        huge = Literal(2**70, Kind.INT, 0)
        assert compare(CompareOp.LT, col("c"), huge, columns).all()
        assert not compare(CompareOp.EQ, huge, col("c"), columns).any()

    def test_a_narrow_column_is_filtered_without_widening(self):
        stored = np.arange(-50, 50, dtype=np.int32)
        days = SelectedArray(stored, None, np.int64, Kind.INT)
        rel = Relation({"d": days})
        out = filter_relation(rel, (col("d") >= lit(-3)) & (col("d") < 7))
        assert not days.gathered
        kept = out.column("d")
        assert isinstance(kept, SelectedArray) and not kept.gathered
        assert kept.source is stored
        assert np.array_equal(kept.values, np.arange(-3, 7))
        assert kept.values.dtype == np.int64


PREDICATE_OPS = {
    PredicateOp.EQ: np.equal,
    PredicateOp.NE: np.not_equal,
    PredicateOp.LT: np.less,
    PredicateOp.LE: np.less_equal,
    PredicateOp.GT: np.greater,
    PredicateOp.GE: np.greater_equal,
}


class TestRowSelectorAtStoredWidth:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_select_equals_the_widened_reference(self, data):
        n = data.draw(st.integers(1, 40))
        columns = {
            name: data.draw(stored_columns(size=n, scale=0, headroom=0))[0]
            for name in ("a", "b", "c")
        }
        constant = st.integers(-LITERAL_BOUND, LITERAL_BOUND) | (
            st.sampled_from([-129, 128, 2**31, -(2**63), 2**63 - 1])
        )
        terms = data.draw(st.lists(
            st.builds(
                ColumnPredicate,
                st.sampled_from(sorted(columns)),
                st.sampled_from(list(PredicateOp)),
                constant,
            ),
            max_size=4,
        ))
        base = data.draw(st.none() | st.lists(
            st.booleans(), min_size=n, max_size=n
        ))
        expected = np.ones(n, dtype=np.bool_)
        if base is not None:
            expected &= np.array(base)
            base = BitVector(np.array(base))
        for term in terms:
            expected &= PREDICATE_OPS[term.op](
                columns[term.column].astype(np.int64), term.constant
            )
        given_base = None if base is None else base.bits.copy()
        mask = RowSelector().select(
            PredicateProgram(tuple(terms)), columns, n, base
        )
        assert np.array_equal(mask.bits, expected)
        if base is not None:  # the incoming mask is read, not written
            assert np.array_equal(base.bits, given_base)
