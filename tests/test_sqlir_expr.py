"""Expression AST: fixed-point typing, string predicates, evaluation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sqlir.expr import (
    CaseWhen,
    EvalContext,
    ExtractYear,
    InList,
    Kind,
    Like,
    ScalarSubquery,
    Substring,
    TypedArray,
    col,
    evaluate,
    expr_depth,
    lit,
    lit_date,
    lit_decimal,
)
from repro.storage.stringheap import StringHeap
from repro.storage.types import date_to_days


def ctx_of(**columns) -> EvalContext:
    nrows = len(next(iter(columns.values())))
    return EvalContext(columns=columns, nrows=nrows)


def ints(*values, scale=0):
    return TypedArray(np.array(values, dtype=np.int64), Kind.INT, scale)


def strings(*values):
    heap, codes = StringHeap.from_values(values)
    return TypedArray(codes, Kind.STR, 0, heap)


class TestLiterals:
    def test_int_literal(self):
        assert lit(5).scale == 0

    def test_float_becomes_scale2(self):
        assert lit(0.05).raw == 5
        assert lit(0.05).scale == 2

    def test_lit_decimal_custom_scale(self):
        assert lit_decimal(0.0001, 6).raw == 100

    def test_date_literal(self):
        assert lit_date("1970-01-02").raw == 1

    def test_string_literal(self):
        assert lit("BRAZIL").kind is Kind.STR

    def test_unsupported_literal(self):
        with pytest.raises(TypeError):
            lit(object())


class TestFixedPointArithmetic:
    def test_mul_adds_scales(self):
        out = evaluate(col("a") * col("b"),
                       ctx_of(a=ints(150, scale=2), b=ints(3, scale=0)))
        assert out.scale == 2
        assert out.values.tolist() == [450]

    def test_add_aligns_scales(self):
        out = evaluate(col("a") + col("b"),
                       ctx_of(a=ints(150, scale=2), b=ints(2, scale=0)))
        assert out.scale == 2
        assert out.values.tolist() == [350]

    def test_one_minus_discount(self):
        # The canonical TPC-H form: 1 - l_discount at scale 2.
        out = evaluate(1 - col("d"), ctx_of(d=ints(5, scale=2)))
        assert out.scale == 2
        assert out.values.tolist() == [95]

    def test_div_promotes_to_float(self):
        out = evaluate(col("a") / col("b"),
                       ctx_of(a=ints(100, scale=2), b=ints(4)))
        assert out.kind is Kind.FLOAT
        assert out.values.tolist() == [0.25]

    def test_div_by_zero_yields_zero(self):
        out = evaluate(col("a") / col("b"), ctx_of(a=ints(5), b=ints(0)))
        assert out.values.tolist() == [0.0]

    def test_rescale_down_rejected(self):
        arr = ints(100, scale=2)
        with pytest.raises(ValueError):
            arr.rescaled(0)

    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_addition_matches_decimal_semantics(self, a, b, sa, sb):
        out = evaluate(
            col("x") + col("y"),
            ctx_of(x=ints(a, scale=sa), y=ints(b, scale=sb)),
        )
        expected = a / 10**sa + b / 10**sb
        assert out.as_float()[0] == pytest.approx(expected, rel=1e-12)


class TestComparisons:
    def test_compare_mixed_scales(self):
        out = evaluate(col("q") < lit_decimal(24.0),
                       ctx_of(q=ints(2300, 2500, scale=2)))
        assert out.values.tolist() == [True, False]

    def test_date_compare(self):
        days = date_to_days("1994-06-01")
        out = evaluate(col("d") >= lit_date("1994-01-01"),
                       ctx_of(d=ints(days)))
        assert out.values.tolist() == [True]

    def test_ne(self):
        out = evaluate(col("a") != lit(3), ctx_of(a=ints(3, 4)))
        assert out.values.tolist() == [False, True]

    def test_boolean_combinators(self):
        ctx = ctx_of(a=ints(1, 5, 9))
        out = evaluate((col("a") > 2) & (col("a") < 8), ctx)
        assert out.values.tolist() == [False, True, False]
        out = evaluate((col("a") < 2) | (col("a") > 8), ctx)
        assert out.values.tolist() == [True, False, True]
        out = evaluate(~(col("a") > 2), ctx)
        assert out.values.tolist() == [True, False, False]


class TestStringPredicates:
    def test_string_equality_via_heap(self):
        out = evaluate(col("s") == lit("ASIA"),
                       ctx_of(s=strings("ASIA", "EUROPE", "ASIA")))
        assert out.values.tolist() == [True, False, True]

    def test_string_equality_missing_literal(self):
        out = evaluate(col("s") == lit("MARS"), ctx_of(s=strings("ASIA")))
        assert out.values.tolist() == [False]

    def test_string_inequality_lexicographic(self):
        out = evaluate(col("s") >= lit("B"),
                       ctx_of(s=strings("APPLE", "CHERRY")))
        assert out.values.tolist() == [False, True]

    def test_like_percent(self):
        out = evaluate(Like(col("s"), "PROMO%"),
                       ctx_of(s=strings("PROMO BRUSHED TIN", "SMALL TIN")))
        assert out.values.tolist() == [True, False]

    def test_like_underscore_and_negation(self):
        out = evaluate(Like(col("s"), "a_c", negated=True),
                       ctx_of(s=strings("abc", "ac")))
        assert out.values.tolist() == [False, True]

    def test_like_infix(self):
        out = evaluate(Like(col("s"), "%special%requests%"),
                       ctx_of(s=strings("very special list of requests",
                                        "nothing here")))
        assert out.values.tolist() == [True, False]

    def test_like_and_not_like_share_one_verdict_table(self):
        s = strings("abc", "ac", "abc")
        hit = evaluate(Like(col("s"), "a_c"), ctx_of(s=s))
        miss = evaluate(Like(col("s"), "a_c", negated=True), ctx_of(s=s))
        assert hit.values.tolist() == [True, False, True]
        assert miss.values.tolist() == [False, True, False]
        assert list(s.heap._verdicts) == ["a_c"]
        # The row masks are the caller's own; the shared table is not.
        assert hit.values.flags.writeable
        assert miss.values.flags.writeable

    def test_in_list_strings_negated_and_unknown_options(self):
        s = strings("MAIL", "RAIL", "SHIP", "RAIL")
        out = evaluate(InList(col("s"), ("AIR", "RAIL"), negated=True),
                       ctx_of(s=s))
        assert out.values.tolist() == [True, False, True, False]
        assert "AIR" not in s.heap

    def test_in_list_strings(self):
        out = evaluate(InList(col("s"), ("MAIL", "SHIP")),
                       ctx_of(s=strings("MAIL", "RAIL", "SHIP")))
        assert out.values.tolist() == [True, False, True]

    def test_in_list_ints_with_scale(self):
        out = evaluate(InList(col("a"), (49, 14)),
                       ctx_of(a=ints(49, 15)))
        assert out.values.tolist() == [True, False]

    def test_in_list_options_finer_than_the_column(self):
        cents = ints(100, 101, 150, scale=2)
        out = evaluate(
            InList(col("a"), (lit_decimal(1.005, 3), lit_decimal(1.5, 3))),
            ctx_of(a=cents),
        )
        assert out.values.tolist() == [False, False, True]
        floats = TypedArray(np.array([1.5, 1.0, 2.0]), Kind.FLOAT)
        out = evaluate(InList(col("f"), (1.5, 2)), ctx_of(f=floats))
        assert out.values.tolist() == [True, False, True]

    def test_substring(self):
        out = evaluate(Substring(col("s"), 1, 2),
                       ctx_of(s=strings("13-555", "29-444")))
        assert out.kind is Kind.STR
        assert out.heap.decode_many(out.values) == ["13", "29"]

    def test_substring_calls_share_a_heap_nothing_interns_into(self):
        ctx = ctx_of(s=strings("13-555", "29-444", "13-777"))
        prefix = Substring(col("s"), 1, 2)
        first = evaluate(prefix, ctx)
        # Strings the heap has never seen are looked up, not interned.
        assert evaluate(
            InList(prefix, ("99", "13")), ctx
        ).values.tolist() == [True, False, True]
        assert not evaluate(prefix == lit("zz"), ctx).values.any()
        again = evaluate(prefix, ctx)
        assert again.heap is first.heap
        assert again.values.tolist() == first.values.tolist() == [0, 1, 0]
        assert first.heap.strings() == ["13", "29"]

    def test_like_requires_string_column(self):
        with pytest.raises(TypeError):
            evaluate(Like(col("a"), "%x%"), ctx_of(a=ints(1)))


class TestMisc:
    def test_case_when(self):
        out = evaluate(
            CaseWhen(col("a") > 0, col("b"), lit(0)),
            ctx_of(a=ints(-1, 1), b=ints(7, 8, scale=0)),
        )
        assert out.values.tolist() == [0, 8]

    def test_extract_year(self):
        days = [date_to_days(d) for d in
                ("1992-01-01", "1998-12-31", "1996-02-29")]
        out = evaluate(ExtractYear(col("d")), ctx_of(d=ints(*days)))
        assert out.values.tolist() == [1992, 1998, 1996]

    def test_scalar_subquery_without_executor(self):
        with pytest.raises(RuntimeError):
            evaluate(ScalarSubquery(None), ctx_of(a=ints(1)))

    def test_scalar_subquery_cached(self):
        calls = []

        def executor(plan):
            calls.append(plan)
            return ints(42)

        ctx = ctx_of(a=ints(1, 2))
        ctx.subquery_executor = executor
        sub = ScalarSubquery("plan")
        out1 = evaluate(col("a") + sub, ctx)
        out2 = evaluate(col("a") + sub, ctx)
        assert out1.values.tolist() == [43, 44]
        assert out2.values.tolist() == [43, 44]
        assert len(calls) == 1  # memoised per run

    def test_column_refs_collects_all(self):
        expr = (col("a") * (1 - col("b"))) > col("c")
        assert expr.column_refs() == {"a", "b", "c"}

    def test_expr_depth(self):
        assert expr_depth(col("a")) == 1
        assert expr_depth(col("a") + col("b")) == 2

    def test_unknown_column_message(self):
        with pytest.raises(KeyError, match="available"):
            evaluate(col("missing"), ctx_of(a=ints(1)))
