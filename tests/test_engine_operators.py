"""Vectorised operator kernels: joins, grouping, sorting, aggregates."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.operators import grouping
from repro.engine.operators.grouping import (
    aggregate_count,
    aggregate_count_distinct,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    group_rows,
)
from repro.engine.operators import joins
from repro.engine.operators.joins import inner_join_indices, semi_join_mask
from repro.engine.operators import relational
from repro.engine.operators.relational import aggregate_relation
from repro.engine.operators.sorting import (
    is_ascending,
    multi_key_order,
    stable_order,
)
from repro.engine.relation import Relation
from repro.sqlir.expr import AggFunc, Kind, TypedArray, col
from repro.sqlir.plan import Aggregate, AggSpec, Scan
from repro.storage.stringheap import StringHeap

keys_lists = st.lists(st.integers(0, 20), max_size=50)

I64 = np.iinfo(np.int64)


def _reference_pairs(left, right) -> list[tuple[int, int]]:
    """Nested loop: left-row-major, ascending right row within a key."""
    return [
        (i, j)
        for i, lv in enumerate(left)
        for j, rv in enumerate(right)
        if lv == rv
    ]


def _assert_exact_pairs(left: np.ndarray, right: np.ndarray) -> None:
    li, ri = inner_join_indices(left, right)
    assert li.dtype == np.int64 and ri.dtype == np.int64
    assert list(zip(li.tolist(), ri.tolist())) == _reference_pairs(
        left.tolist(), right.tolist()
    )


# Small integers re-encoded so that each route of the kernel is taken:
# a shifted dense window, keys 10^6 apart (sorted by radix passes),
# TPC-H-style composite keys 10^12 apart, and keys saturating at both
# ends of int64 (span overflows int64).
_ENCODINGS = {
    "dense": lambda k, shift: k + shift,
    "spread": lambda k, shift: k * 10**6 + shift,
    "sparse": lambda k, shift: k * 10**12 + shift,
    "extreme": lambda k, shift: max(I64.min, min(I64.max, k * 2**60)),
}


@st.composite
def _encoded_keys(draw):
    encode = _ENCODINGS[draw(st.sampled_from(sorted(_ENCODINGS)))]
    shift = draw(st.integers(-1000, 1000))
    # Probe keys range wider than build keys: some fall outside the
    # build window on either side.  Half the build sides are unique
    # (before encoding: "extreme" saturates some of them together).
    # -12..12 holds 25 distinct keys.
    left = draw(st.lists(st.integers(-30, 30), max_size=40))
    unique = draw(st.booleans())
    right = draw(
        st.lists(
            st.integers(-12, 12), max_size=25 if unique else 40, unique=unique
        )
    )
    return (
        np.array([encode(k, shift) for k in left], dtype=np.int64),
        np.array([encode(k, shift) for k in right], dtype=np.int64),
    )


_KEY_DTYPES = [
    (np.int32, np.int32),
    (np.uint8, np.uint8),
    (np.int32, np.int64),
    (np.int64, np.uint8),
    (np.int8, np.int64),
    (np.int64, np.int16),
    (np.int16, np.int32),
    (np.int64, np.uint64),
    (np.uint64, np.uint64),
    (np.float64, np.float64),
    (np.bool_, np.bool_),
]


# Keys where float64 loses int64/uint64 apart: about 2⁵³ (the last
# integer float64 holds exactly) and 2⁶³ (past int64, and where int64
# keys turn negative), with small keys beside them.
_SIGNED_EDGES = st.one_of(
    st.integers(-3, 3),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(2**63 - 4, 2**63 - 1),
    st.integers(-(2**63), -(2**63) + 3),
)
_UNSIGNED_EDGES = st.one_of(
    st.integers(0, 3),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(2**63 - 4, 2**63 + 3),
    st.integers(2**64 - 4, 2**64 - 1),
)


def _examples(n: int) -> int:
    """``n`` examples, or more under a profile that asks for more (the
    ``long`` profile of ``tests/conftest.py``)."""
    return max(n, settings.default.max_examples)


def _draw_keys(data, dtype) -> np.ndarray:
    if dtype is np.bool_:
        elements = st.booleans()
    elif dtype is np.float64:
        elements = st.integers(-8, 8).map(lambda k: k / 2)
    elif np.issubdtype(dtype, np.unsignedinteger):
        elements = st.integers(0, 12)
    else:
        elements = st.integers(-12, 12)
    return np.array(data.draw(st.lists(elements, max_size=30)), dtype=dtype)


def _count_expansions(monkeypatch) -> list:
    """Record each call of the join kernel's run expansion."""
    calls = []
    real = joins._expand
    monkeypatch.setattr(
        joins, "_expand", lambda *runs: calls.append(1) or real(*runs)
    )
    return calls


class TestInnerJoin:
    def test_basic_pairs(self):
        li, ri = inner_join_indices(np.array([1, 2, 3]), np.array([2, 2, 4]))
        pairs = sorted(zip(li.tolist(), ri.tolist()))
        assert pairs == [(1, 0), (1, 1)]

    def test_left_major_order(self):
        li, _ = inner_join_indices(np.array([5, 1, 5]), np.array([5, 1]))
        assert li.tolist() == sorted(li.tolist())

    def test_empty_sides(self):
        li, ri = inner_join_indices(np.array([]), np.array([1]))
        assert len(li) == 0 and len(ri) == 0
        for left, right in ([[], [1]], [[1], []], [[], []]):
            _assert_exact_pairs(
                np.array(left, dtype=np.int64),
                np.array(right, dtype=np.int64),
            )

    def test_no_matches(self):
        li, ri = inner_join_indices(np.array([1]), np.array([2]))
        assert len(li) == 0

    @given(keys_lists, keys_lists)
    @settings(max_examples=60)
    def test_matches_nested_loop_reference(self, left, right):
        _assert_exact_pairs(
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        )

    @given(_encoded_keys())
    @settings(max_examples=600, deadline=None)
    def test_exact_pair_order_on_every_route(self, keys):
        _assert_exact_pairs(*keys)

    @pytest.mark.parametrize("left_dtype, right_dtype", _KEY_DTYPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_key_dtypes(self, left_dtype, right_dtype, data):
        _assert_exact_pairs(
            _draw_keys(data, left_dtype), _draw_keys(data, right_dtype)
        )

    @pytest.mark.parametrize("encoding", ["dense", "spread", "sparse"])
    def test_unique_builds_take_one_look_up_per_probe(
        self, encoding, monkeypatch
    ):
        # A unique integer build side never reaches the run expansion,
        # on the direct route ("dense") or the sort route; a duplicated
        # one always does.
        encode = _ENCODINGS[encoding]
        left = np.array([encode(k, 3) for k in range(-30, 31)])
        right = np.array([encode(k, 3) for k in range(12, -13, -2)])
        assert (joins._join_direct(left, right) is not None) == (
            encoding == "dense"
        )
        calls = _count_expansions(monkeypatch)
        _assert_exact_pairs(left, right)
        assert calls == []
        _assert_exact_pairs(left, np.concatenate([right, right[::3]]))
        assert calls == [1]

    def test_composite_scale_unique_build(self, monkeypatch):
        # Q9/Q20's partkey * K + suppkey keys span ~10^12: sort route,
        # one search per probe, probes on both sides of the build keys.
        rng = np.random.default_rng(9)
        right = rng.permutation(
            np.arange(1, 400) * 10**10 + rng.integers(0, 4, 399)
        )
        left = np.concatenate([right[rng.integers(0, 399, 900)],
                               right[:50] + 1, [0, -(10**13), 10**13]])
        calls = _count_expansions(monkeypatch)
        _assert_exact_pairs(rng.permutation(left), right)
        assert calls == []

    def test_wide_integer_unique_build_takes_one_search(self, monkeypatch):
        # A span past RADIX_CELLS orders the build side by comparison;
        # integer keys still need only one search per probe.
        right = np.array([I64.max, 0, I64.min, -7, 2**60], dtype=np.int64)
        left = np.array([-7, I64.min, 5, I64.max, 2**60, -7, I64.max - 1],
                        dtype=np.int64)
        calls = _count_expansions(monkeypatch)
        _assert_exact_pairs(left, right)
        assert calls == []

    def test_float_builds_keep_both_searches(self, monkeypatch):
        calls = _count_expansions(monkeypatch)
        _assert_exact_pairs(
            np.array([0.5, 2.0, -1.5, 0.5]), np.array([-1.5, 0.5, 1.0])
        )
        assert calls == [1]

    def test_probe_keys_that_wrap_around_the_window(self):
        # ``left - min(right)`` overflows int64 for these probes; none
        # may land inside the table.
        for right in ([I64.max - 1, I64.max], [I64.min, I64.min + 1], [0, 1]):
            right = np.array(right, dtype=np.int64)
            assert joins._join_direct(right, right) is not None
            left = np.array(
                [I64.min, I64.min + 1, -1, 0, 1, 2, I64.max - 1, I64.max],
                dtype=np.int64,
            )
            _assert_exact_pairs(left, right)

    def test_route_follows_dtype_span_and_row_counts(self):
        def direct(left, right):
            return joins._join_direct(
                np.asarray(left), np.asarray(right)
            ) is not None

        rows = np.arange(50)
        assert direct(rows, rows)
        assert direct(rows.astype(np.int32), rows.astype(np.uint8))
        assert direct(rows - 7, -rows)                    # negative keys
        assert direct(rows, np.repeat(rows, 2))           # duplicated build
        # Span bounded by a multiple of the rows on both sides.
        limit = joins.DIRECT_SPAN_FACTOR * 100
        assert direct(rows, np.linspace(0, limit - 1, 50).astype(np.int64))
        assert not direct(rows, np.linspace(0, limit, 50).astype(np.int64))
        assert not direct(rows, rows * 10**12)            # composite keys
        assert not direct(rows, np.array([I64.min, I64.max]))
        assert not direct(rows.astype(np.float64), rows)
        assert not direct(rows, rows.astype(np.float64))
        assert not direct(rows > 3, rows > 3)
        assert not direct(rows.astype(np.uint64), rows)

    @given(keys_lists, keys_lists)
    @settings(max_examples=40)
    def test_semi_mask_matches_membership(self, left, right):
        left = np.array(left, dtype=np.int64)
        right = np.array(right, dtype=np.int64)
        mask = semi_join_mask(left, right)
        rset = set(right.tolist())
        assert mask.tolist() == [v in rset for v in left.tolist()]

    @pytest.mark.parametrize("left_dtype, right_dtype", _KEY_DTYPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_semi_mask_equals_isin(self, left_dtype, right_dtype, data):
        left = _draw_keys(data, left_dtype)
        right = _draw_keys(data, right_dtype)
        mask = semi_join_mask(left, right)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, np.isin(left, right))

    def test_semi_mask_at_int64_edges_and_empty_sides(self):
        left = np.array(
            [I64.min, I64.min + 1, -1, 0, 1, 2, I64.max - 1, I64.max],
            dtype=np.int64,
        )
        for right, direct in (
            ([I64.max - 1, I64.max], True),
            ([I64.min, I64.min + 1], True),
            ([0, 1, 1], True),
            ([I64.min, I64.max], False),
            ([], False),
        ):
            right = np.array(right, dtype=np.int64)
            for probe in (left, left[:0]):
                if len(right):
                    window = joins._probe_window(probe, right)
                    assert (window is not None) == direct
                mask = semi_join_mask(probe, right)
                assert mask.dtype == np.bool_
                assert np.array_equal(mask, np.isin(probe, right))


class TestJoinRoutes:
    """The searched build and ordered probes against the nested loop:
    same pairs, same order, on every key width."""

    @pytest.mark.parametrize("left_dtype, right_dtype", _KEY_DTYPES)
    @given(data=st.data(), unique=st.booleans(),
           sort_probes=st.booleans(), threshold=st.integers(0, 31))
    @settings(max_examples=_examples(100), deadline=None)
    def test_searched_build_equals_reference(
        self, left_dtype, right_dtype, data, unique, sort_probes, threshold
    ):
        # Ascending build sides with and without duplicates; probes
        # sorted or not, on both sides of the ordered-probe threshold.
        right = np.sort(_draw_keys(data, right_dtype))
        if unique:
            right = np.unique(right)
        left = _draw_keys(data, left_dtype)
        if sort_probes:
            left = np.sort(left)
        integers = (
            left.dtype.kind in "iu" and right.dtype.kind in "iu"
            and np.result_type(left, right).kind in "iu"
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(joins, "_SEARCH_FACTOR", float(len(left) + 1))
            patch.setattr(joins, "_ORDERED_PROBES", threshold)
            if len(right):
                assert joins._searchable(left, right) == integers
            _assert_exact_pairs(left, right)
            assert np.array_equal(
                semi_join_mask(left, right), np.isin(left, right)
            )

    @pytest.mark.parametrize("left_dtype, right_dtype", _KEY_DTYPES)
    @given(data=st.data(), unique=st.booleans())
    @settings(max_examples=_examples(100), deadline=None)
    def test_searched_probe_side_equals_reference(
        self, left_dtype, right_dtype, data, unique
    ):
        # Ascending probe sides with repeated keys, against build sides
        # in any order, with and without duplicates.
        left = np.sort(_draw_keys(data, left_dtype))
        right = _draw_keys(data, right_dtype)
        if unique:
            right = np.unique(right)
            right = right[data.draw(st.permutations(range(len(right))))]
        integers = (
            left.dtype.kind in "iu" and right.dtype.kind in "iu"
            and np.result_type(left, right).kind in "iu"
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(joins, "_SEARCH_FACTOR", 0.0)
            patch.setattr(
                joins, "_PROBE_SEARCH_FACTOR", float(len(right) + 1)
            )
            if len(left) and len(right):
                assert joins._probes_searchable(left, right) == integers
            _assert_exact_pairs(left, right)
            assert np.array_equal(
                semi_join_mask(left, right), np.isin(left, right)
            )

    def test_probe_side_is_searched_at_its_width(self, monkeypatch):
        # int64 build keys against int8 probes: the keys are searched
        # as int8, and those past int8 match nothing (not its ends).
        searched = []
        real = np.searchsorted
        monkeypatch.setattr(
            joins.np, "searchsorted",
            lambda a, v, side="left": searched.append(np.asarray(v).dtype)
            or real(a, v, side),
        )
        left = np.array([-128, -128, -3, 0, 0, 2, 127, 127], dtype=np.int8)
        right = np.array([127 + 1, 2, -128 - 300, 0, 127, 5000])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(joins, "_PROBE_SEARCH_FACTOR", 10.0)
            _assert_exact_pairs(left, right)
            assert np.array_equal(
                semi_join_mask(left, right), np.isin(left, right)
            )
        assert searched and set(searched) == {np.dtype(np.int8)}

    def test_probe_side_route_follows_order_and_size(self, monkeypatch):
        calls = []
        real = joins._probe_runs
        monkeypatch.setattr(
            joins, "_probe_runs",
            lambda left, keys: calls.append(len(keys)) or real(left, keys),
        )
        probes = np.repeat(np.arange(2000, dtype=np.int64), 3)  # 6 000
        # 40 build keys: 40 · log2(6 001) < 0.1 · 6 000; 80 are not.
        few = np.arange(0, 4000, 100, dtype=np.int32)[::-1]
        many = np.arange(0, 4000, 50, dtype=np.int32)
        for left, right, searched in (
            (probes, few, True),
            (probes, np.repeat(few[:20], 2), True),  # duplicated build
            (probes, many, False),                 # too many build keys
            (probes[::-1], few, False),            # probes not ascending
        ):
            calls.clear()
            _assert_exact_pairs(left, right)
            assert bool(calls) == searched
            assert np.array_equal(
                semi_join_mask(left, right), np.isin(left, right)
            )

    @given(_encoded_keys(), st.integers(0, 41), st.booleans())
    @settings(max_examples=_examples(300), deadline=None)
    def test_ordered_probes_on_the_sort_route(
        self, keys, threshold, sort_probes
    ):
        left, right = keys
        if sort_probes:
            left = np.sort(left)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(joins, "_ORDERED_PROBES", threshold)
            probes, by_key = joins._probes(left)
            assert (by_key is not None) == (
                len(left) > threshold and not is_ascending(left)
            )
            assert np.array_equal(
                probes, left if by_key is None else np.sort(left)
            )
            _assert_exact_pairs(left, right)

    def test_float_probes_in_key_order_keep_nan_matches(self):
        right = np.array([np.nan, 0.5, -1.0, np.nan, 0.5, 2.0])
        left = np.array([np.nan, 2.0, 0.5, -3.0, np.nan, 0.5, -1.0] * 3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(joins, "_ORDERED_PROBES", 0)
            assert joins._probes(left)[1] is not None
            li, ri = inner_join_indices(left, right)
        want = [
            (i, j)
            for i, lv in enumerate(left.tolist())
            for j, rv in enumerate(right.tolist())
            if lv == rv or (np.isnan(lv) and np.isnan(rv))
        ]
        assert list(zip(li.tolist(), ri.tolist())) == want

    @given(data=st.data(), swap=st.booleans(), sort_build=st.booleans(),
           search=st.booleans(), threshold=st.integers(0, 31))
    @settings(max_examples=_examples(200), deadline=None)
    def test_mixed_sign_keys_equal_reference(
        self, data, swap, sort_build, search, threshold
    ):
        # int64 against uint64 on every route, either side the build:
        # a uint64 key past int64 and a negative int64 key match
        # nothing, the rest compare exactly.
        signed = np.array(
            data.draw(st.lists(_SIGNED_EDGES, max_size=30)), dtype=np.int64
        )
        unsigned = np.array(
            data.draw(st.lists(_UNSIGNED_EDGES, max_size=30)),
            dtype=np.uint64,
        )
        left, right = (unsigned, signed) if swap else (signed, unsigned)
        if sort_build:
            right = np.sort(right)
        with pytest.MonkeyPatch.context() as patch:
            if search:
                patch.setattr(joins, "_SEARCH_FACTOR", float(len(left) + 1))
            patch.setattr(joins, "_ORDERED_PROBES", threshold)
            _assert_exact_pairs(left, right)
            build = set(right.tolist())
            assert semi_join_mask(left, right).tolist() == [
                key in build for key in left.tolist()
            ]

    def test_signed_against_uint64_past_2_53(self):
        # Compared as float64, 2⁵³ + 1 equals 2⁵³.
        signed = np.array([2**53 + 1, 2**53 + 2], dtype=np.int64)
        unsigned = np.array([2**53, 2**53 + 1, 2**53 + 2], dtype=np.uint64)
        li, ri = inner_join_indices(signed, unsigned)
        assert list(zip(li.tolist(), ri.tolist())) == [(0, 1), (1, 2)]
        li, ri = inner_join_indices(unsigned, signed)
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 0), (2, 1)]
        assert semi_join_mask(signed, unsigned).tolist() == [True, True]
        assert semi_join_mask(unsigned, signed).tolist() == [
            False, True, True
        ]

    def test_signed_against_uint64_keeps_its_route(self):
        # NumPy compares int64 with uint64 as float64: the searched
        # route must not see them.
        right = np.arange(0, 600, 3, dtype=np.uint64)
        left = np.array([-20, 0, 3, 5, 9, 9, 597, 598, 600], dtype=np.int64)
        assert not joins._searchable(left, right)
        assert joins._join_direct(left, right) is None
        _assert_exact_pairs(left, right)
        assert np.array_equal(
            semi_join_mask(left, right), np.isin(left, right)
        )
        # The same keys as int64 on both sides are searched.
        assert joins._searchable(left, right.astype(np.int64))

    def test_route_follows_order_and_size(self, monkeypatch):
        calls = []
        real = joins._search_pairs
        monkeypatch.setattr(
            joins, "_search_pairs",
            lambda left, right, order, unique=False:
            calls.append(order is None) or real(left, right, order, unique),
        )
        build = np.repeat(np.arange(2000, dtype=np.int32), 3)  # 6 000
        # 200 probes: 200 · log2(6 001) < 0.5 · 6 000; 1 334 are not.
        few = np.arange(0, 4000, 20, dtype=np.int64)
        many = np.arange(0, 4000, 3, dtype=np.int64)
        for left, right, searched in (
            (few, build, True),
            (few[::-1], build, True),              # probe order is free
            (many, build, False),                  # too many probes
            (few, build[::-1], False),             # build not ascending
            (few.astype(np.float64), build.astype(np.float64), False),
        ):
            calls.clear()
            _assert_exact_pairs(left, right)
            assert (True in calls) == searched
            assert np.array_equal(
                semi_join_mask(left, right), np.isin(left, right)
            )


class TestGrouping:
    def test_group_numbers_first_appearance_order(self):
        g = group_rows([np.array([7, 3, 7, 9, 3])])
        assert g.group_of_row.tolist() == [0, 1, 0, 2, 1]
        assert g.representative.tolist() == [0, 1, 3]

    def test_multi_key_grouping(self):
        g = group_rows([np.array([1, 1, 2]), np.array([5, 6, 5])])
        assert g.n_groups == 3

    def test_empty_keys_no_rows(self):
        g = group_rows([])
        assert g.n_groups == 1  # the implicit global group

    def test_empty_input_with_keys(self):
        g = group_rows([np.array([], dtype=np.int64)])
        assert g.n_groups == 0

    def test_aggregates(self):
        g = group_rows([np.array([0, 1, 0, 1])])
        v = np.array([10, 20, 30, 40])
        assert aggregate_sum(v, g).tolist() == [40, 60]
        assert aggregate_count(g).tolist() == [2, 2]
        assert aggregate_min(v, g).tolist() == [10, 20]
        assert aggregate_max(v, g).tolist() == [30, 40]

    def test_count_distinct(self):
        g = group_rows([np.array([0, 0, 0, 1])])
        v = np.array([5, 5, 6, 7])
        assert aggregate_count_distinct(v, g).tolist() == [2, 1]

    def test_count_distinct_keeps_values_as_they_are(self):
        g = group_rows([np.array([0, 0, 0, 0, 1, 1, 1])])
        fractional = np.array([0.25, 0.5, 0.75, 0.25, -0.5, -0.25, -0.5])
        assert aggregate_count_distinct(fractional, g).tolist() == [3, 2]
        edges = np.array(
            [I64.min, I64.max, I64.min, I64.max - 1, -1, I64.max, 0],
            dtype=np.int64,
        )
        assert aggregate_count_distinct(edges, g).tolist() == [3, 3]
        _, codes = StringHeap.from_values(["b", "a", "b", "b", "c", "a", "c"])
        assert aggregate_count_distinct(codes, g).tolist() == [2, 2]
        keyless = group_rows([], 7)
        assert aggregate_count_distinct(fractional, keyless).tolist() == [5]
        none = group_rows([], 0)
        assert aggregate_count_distinct(fractional[:0], none).tolist() == [0]

    @given(st.lists(st.tuples(st.integers(0, 4),
                              st.floats(-4, 4, allow_nan=False)),
                    max_size=60))
    @settings(max_examples=60)
    def test_count_distinct_matches_reference(self, rows):
        keys = np.array([k for k, _ in rows], dtype=np.int64)
        vals = np.array([v for _, v in rows], dtype=np.float64)
        g = group_rows([keys])
        got = aggregate_count_distinct(vals, g)
        assert got.dtype == np.int64
        reference = {}
        for k, v in rows:
            reference.setdefault(k, set()).add(v)
        assert {
            int(keys[g.representative[i]]): int(got[i])
            for i in range(g.n_groups)
        } == {k: len(vs) for k, vs in reference.items()}

    def test_counts_are_counted_once_and_read_only(self):
        g = group_rows([np.array([3, 1, 3, 3])])
        assert g.counts.tolist() == [3, 1] and g.counts.dtype == np.int64
        assert aggregate_count(g) is g.counts
        with pytest.raises(ValueError):
            g.counts[0] = 7

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
                    min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_sum_matches_reference(self, rows):
        keys = np.array([k for k, _ in rows])
        vals = np.array([v for _, v in rows])
        g = group_rows([keys])
        sums = aggregate_sum(vals, g)
        reference = {}
        for k, v in rows:
            reference[k] = reference.get(k, 0) + v
        got = {
            int(keys[g.representative[i]]): int(sums[i])
            for i in range(g.n_groups)
        }
        assert got == reference


_EXACT = 2**53


@st.composite
def _fixed_point_column(draw):
    """Group keys (one-row groups among them) and int64 fixed-point
    values whose ``max|v| * rows`` lands just under, at or over 2**53,
    well over it (float partial sums round), or whose sums wrap int64."""
    n = draw(st.integers(1, 40))
    keys = draw(st.lists(
        st.integers(0, draw(st.integers(0, 6))), min_size=n, max_size=n
    ))
    bound = draw(st.one_of(
        st.integers(-2, 2).map(lambda d: _EXACT // n + d),
        st.integers(-2, 2).map(lambda d: (_EXACT - 1) // n + d),
        st.integers(54, 62).map(lambda e: 2**e // n),
        st.sampled_from([I64.max // n, I64.max]),
        st.integers(1, 1000),
    ))
    edges = [bound, -bound, bound - 1, 1 - bound]
    if bound == I64.max:
        edges.append(I64.min)
    # Same-sign values near the edge make partial sums grow with the
    # rows; mixed ones cancel.
    near_edge = st.integers(max(1, bound - 7), bound)
    values = draw(st.one_of(
        st.lists(
            st.one_of(st.sampled_from(edges), st.integers(-bound, bound)),
            min_size=n, max_size=n,
        ),
        st.lists(near_edge, min_size=n, max_size=n),
        st.lists(near_edge.map(lambda v: -v), min_size=n, max_size=n),
    ))
    scale = draw(st.integers(0, 4))
    return (np.array(keys, dtype=np.int64),
            np.array(values, dtype=np.int64), scale)


class TestSharedSums:
    @given(_fixed_point_column(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_sum_and_avg_equal_the_float_reference(self, column, avg_first):
        keys, values, scale = column
        rel = Relation({
            "k": TypedArray(keys, Kind.INT, 0),
            "v": TypedArray(values, Kind.INT, scale),
        })
        specs = [AggSpec("s", AggFunc.SUM, col("v")),
                 AggSpec("a", AggFunc.AVG, col("v"))]
        if avg_first:
            specs.reverse()
        out, groups = aggregate_relation(
            rel, Aggregate(Scan("t"), ("k",), tuple(specs))
        )
        # The reference: SUM wraps in int64, AVG sums the values as
        # floats in row order, as np.add.at does.
        rows = groups.group_of_row
        sums = np.zeros(groups.n_groups, dtype=np.int64)
        np.add.at(sums, rows, values)
        float_sums = np.zeros(groups.n_groups, dtype=np.float64)
        np.add.at(float_sums, rows, values.astype(np.float64))
        counts = np.bincount(rows, minlength=groups.n_groups)
        means = np.where(
            counts == 0, 0.0, float_sums / np.maximum(counts, 1)
        )
        if scale:
            means = means / 10**scale
        got_sum, got_avg = out.column("s"), out.column("a")
        assert (got_sum.kind, got_sum.scale) == (Kind.INT, scale)
        assert got_sum.values.dtype == np.int64
        assert got_sum.values.tobytes() == sums.tobytes()
        assert (got_avg.kind, got_avg.scale) == (Kind.FLOAT, 0)
        assert got_avg.values.dtype == np.float64
        assert got_avg.values.tobytes() == means.tobytes()

    def test_one_operand_is_summed_once(self, monkeypatch):
        calls = []
        real = relational.aggregate_sum
        monkeypatch.setattr(
            relational, "aggregate_sum",
            lambda values, groups: calls.append(values.dtype)
            or real(values, groups),
        )
        rel = Relation({
            "k": TypedArray(np.array([0, 1, 0]), Kind.INT, 0),
            "v": TypedArray(np.array([5, 7, 9]), Kind.INT, 2),
            "f": TypedArray(np.array([0.5, 1.5, 2.0]), Kind.FLOAT, 0),
        })
        specs = tuple(
            AggSpec(f"{func.value}_{name}", func, col(name))
            for name in ("v", "f") for func in (AggFunc.SUM, AggFunc.AVG)
        )
        out, _ = aggregate_relation(rel, Aggregate(Scan("t"), ("k",), specs))
        assert calls == [np.int64, np.float64]
        assert out.column("avg_v").values.tolist() == [0.07, 0.07]
        assert out.column("avg_f").values.tolist() == [1.25, 1.5]


def _assert_routes_agree(keys: list[np.ndarray]) -> None:
    """``group_rows`` ≡ the sort route: values, dtypes, group count."""
    _assert_same_groups(group_rows(keys), grouping._group_sorted(keys))


def _assert_same_groups(got, want) -> None:
    for attr in ("group_of_row", "representative"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype == np.int64
        assert a.tolist() == b.tolist()
    assert got.n_groups == want.n_groups


@st.composite
def _key_sets(draw):
    """1–4 equal-length integer key columns around varied origins."""
    n = draw(st.integers(1, 40))
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        info = np.iinfo(dtype)
        width = draw(st.integers(1, 12))
        origin = draw(st.one_of(
            st.integers(-20, 20),
            st.sampled_from([info.min, info.max - width + 1]),
        ))
        values = draw(st.lists(
            st.integers(origin, origin + width - 1), min_size=n, max_size=n
        ))
        keys.append(np.array(values, dtype=dtype))
    return keys


@st.composite
def _dependent_keys(draw):
    """A first integer key, then keys that depend on it (wide, so the
    tuples leave the grid), depend on it except on the last row, do
    not depend on it, or are floats holding NaN."""
    n = draw(st.integers(1, 40))
    first = np.array(
        draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    )
    keys = [first]
    for _ in range(draw(st.integers(1, 4))):
        table = np.array(
            draw(st.lists(st.integers(-3, 3), min_size=11, max_size=11))
        )
        dependent = table[first + 5] * 10**15
        shape = draw(st.sampled_from(["depends", "last", "free", "nan"]))
        if shape == "last":
            dependent[-1] += 1
        elif shape == "free":
            dependent = np.array(draw(st.lists(
                st.integers(-3, 3), min_size=n, max_size=n
            ))) * 10**15
        elif shape == "nan":
            dependent = np.where(table[first + 5] > 0, np.nan,
                                 table[first + 5] / 4)
        keys.append(dependent)
    return keys


class TestGroupingRoutes:
    @given(_key_sets())
    @settings(max_examples=_examples(300), deadline=None)
    def test_direct_route_equals_sort_route(self, keys):
        _assert_routes_agree(keys)
        # group_rows sends tiny grids elsewhere; the direct route itself
        # must still agree on every grid within its budget.
        grid = grouping._grid_cells(keys)
        if grid is not None:
            _assert_same_groups(
                grouping._group_direct(*grid), grouping._group_sorted(keys)
            )

    @given(_key_sets(), st.booleans())
    @settings(max_examples=_examples(300), deadline=None)
    def test_cell_numbered_direct_route_equals_sort_route(
        self, keys, by_cell
    ):
        # The direct route numbers its groups from each cell's first
        # row, or finds the first rows among the rows: the same groups.
        grid = grouping._grid_cells(keys)
        assume(grid is not None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                grouping, "_CELL_NUMBER_ROWS",
                0 if by_cell else len(keys[0]) + 1,
            )
            got = grouping._group_direct(*grid)
        _assert_same_groups(got, grouping._group_sorted(keys))

    def test_small_grids_number_their_cells(self, monkeypatch):
        numbered = []
        real = grouping._number_cells
        monkeypatch.setattr(
            grouping, "_number_cells",
            lambda cell, first, n: numbered.append(len(first))
            or real(cell, first, n),
        )
        rows = np.arange(16 * 100)
        rng = np.random.default_rng(3)
        # 100 cells over 1 600 rows sit at the threshold; 101 past it.
        for cells, by_cell in ((100, True), (101, False)):
            keys = [rng.permutation(rows % cells)]
            numbered.clear()
            _assert_routes_agree(keys)
            assert numbered == ([cells] if by_cell else [])

    @given(_key_sets(), st.integers(1, 50))
    @settings(max_examples=_examples(300), deadline=None)
    def test_tiny_route_equals_sort_route(self, keys, prefix):
        # A first prefix shorter than the input makes the first-row
        # search grow, chunk by chunk.
        cell, cells = grouping._grid_cells(keys, grouping.RADIX_CELLS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping, "_TINY_PREFIX", prefix)
            got = grouping._group_tiny(cell, cells)
        _assert_same_groups(got, grouping._group_sorted(keys))
        assert got.counts.dtype == np.int64
        assert got.counts.tolist() == np.bincount(got.group_of_row).tolist()
        with pytest.raises(ValueError):
            got.counts[0] = 7

    def test_tiny_grids_take_the_tiny_route(self, monkeypatch):
        tiny = []
        real = grouping._group_tiny
        monkeypatch.setattr(
            grouping, "_group_tiny",
            lambda cell, cells: tiny.append(cells) or real(cell, cells),
        )
        n = 3 * grouping._RUN_MIN_ROWS
        rows = np.arange(n)
        # Q1's 3 x 2 flag grid, one cell first seen on the last row (the
        # prefix grows to the end), and the same keys in sorted order,
        # which the run route would otherwise take.
        flags = [rows % 3, rows % 2]
        late = [rows % 3, np.where(rows == n - 1, 2, rows % 2)]
        ordered = [np.sort(k) for k in flags]
        edge = grouping._TINY_GRID_CELLS
        for keys, cells in ((flags, 6), (late, 9), (ordered, 6),
                            ([rows % edge], edge)):
            tiny.clear()
            _assert_routes_agree(keys)
            assert tiny == [cells]
        tiny.clear()
        _assert_routes_agree([rows % (edge + 1)])
        assert tiny == []

    @given(_key_sets(), st.sampled_from(["ascending", "blocks", "unsorted"]),
           st.integers(2, 5))
    @settings(max_examples=_examples(300), deadline=None)
    def test_run_route_equals_sort_route(self, keys, layout, block):
        # Rows in key-tuple order, then each block of rows reversed
        # (ordered between blocks, not within them), or as drawn.
        if layout != "unsorted":
            order = np.lexsort(tuple(reversed(keys)))
            if layout == "blocks":
                order = np.concatenate([
                    order[i:i + block][::-1]
                    for i in range(0, len(order), block)
                ])
            keys = [k[order] for k in keys]
        cell, _ = grouping._grid_cells(keys, grouping.RADIX_CELLS)
        if layout == "ascending":
            assert is_ascending(cell)
        if is_ascending(cell):
            _assert_same_groups(grouping._group_runs(cell),
                                grouping._group_sorted(keys))
        _assert_routes_agree(keys)

    def test_long_inputs_take_the_run_route_only_when_ascending(
        self, monkeypatch
    ):
        runs = []
        real = grouping._group_runs
        monkeypatch.setattr(
            grouping, "_group_runs", lambda cell: runs.append(1) or real(cell)
        )
        n = grouping._RUN_MIN_ROWS
        rng = np.random.default_rng(18)
        # l_orderkey-like: ascending, sparse (past the direct budget),
        # one to seven rows per key; and a two-key tuple in order.
        orderkey = np.repeat(np.arange(n) * 32, rng.integers(1, 8, n))[:n]
        pair = [np.arange(n) // 100, np.arange(n) % 100 // 10 - 3]
        for keys in ([orderkey], pair):
            runs.clear()
            _assert_routes_agree(keys)
            assert runs == [1]
            # Blocks of four reversed, or shuffled: not runs.
            blocks = np.arange(n).reshape(-1, 4)[:, ::-1].ravel()
            for order in (blocks, rng.permutation(n)):
                runs.clear()
                _assert_routes_agree([k[order] for k in keys])
                assert runs == []
        runs.clear()
        _assert_routes_agree([orderkey[: n - 1]])   # too short to test
        assert runs == []

    @given(st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                            np.uint8, np.uint64]),
           st.lists(st.integers(0, 120), min_size=1, max_size=40),
           st.integers(1, 41))
    @settings(max_examples=_examples(300), deadline=None)
    def test_one_ascending_key_is_its_own_runs(self, dtype, values, least):
        key = np.sort(np.array(values, dtype=dtype))
        if dtype is np.uint64:
            key += np.uint64(2**63)          # past int64: no grid at all
        grids = []
        real = grouping._grid_cells
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping, "_RUN_MIN_ROWS", least)
            patch.setattr(
                grouping, "_grid_cells",
                lambda keys, budget=None: grids.append(1)
                or real(keys, budget),
            )
            got = group_rows([key])
        _assert_same_groups(got, grouping._group_sorted([key]))
        # Long enough, the key is its runs: no grid cell computed.
        assert (grids == []) == (len(key) >= least)

    @given(_dependent_keys())
    @settings(max_examples=_examples(300), deadline=None)
    def test_dependent_keys_equal_sort_route(self, keys):
        _assert_routes_agree(keys)

    def test_keys_that_add_no_groups_are_dropped(self, monkeypatch):
        sorted_keys = []
        real = grouping._group_sorted
        monkeypatch.setattr(
            grouping, "_group_sorted",
            lambda keys, order=None: sorted_keys.append(len(keys))
            or real(keys, order),
        )
        rng = np.random.default_rng(10)
        # Q10's shape: a customer key, then columns of the customer.
        custkey = rng.integers(1, 300, 1000)
        name = (custkey * 7919 % 1009).astype(np.int32)
        balance = custkey * 10**15 - 3                  # grid past 2^48
        for keys, sorted_width in (
            ([custkey, name, balance], []),
            ([custkey, name, balance, custkey * 0.5], []),
        ):
            sorted_keys.clear()
            _assert_same_groups(group_rows(keys), real(keys))
            assert sorted_keys == sorted_width
        # One row breaks the dependency, on the last row, in a group
        # first seen earlier: that key stays, the other goes.
        broken = balance.copy()
        broken[-1] += 1
        assert custkey[-1] in custkey[:-1]
        for extra in (broken, np.where(custkey % 5 == 0, np.nan, name)):
            sorted_keys.clear()
            keys = [custkey, name, extra]
            _assert_same_groups(group_rows(keys), real(keys))
            assert sorted_keys == [2]

    def test_degenerate_shapes(self):
        one_row = [np.array([7]), np.array([-3], dtype=np.int32)]
        assert grouping._grid_cells(one_row) is not None
        _assert_routes_agree(one_row)
        _assert_routes_agree([np.full(9, -4), np.full(9, 11)])  # all equal
        _assert_routes_agree([np.arange(30)[::-1] - 15])     # all distinct

    def test_product_of_spans_at_and_past_the_budget(self):
        n = 25
        budget = grouping.DIRECT_SPAN_FACTOR * n  # 100 cells
        a = np.arange(n) % 10                     # span 10
        at = [a, np.arange(n) % 10 - 4]           # 10 x 10 = budget
        past = [a, np.arange(n) % 11 - 4]         # 10 x 11
        assert grouping._grid_cells(at)[1] == budget
        assert grouping._grid_cells(past) is None
        _assert_routes_agree(at)
        _assert_routes_agree(past)

    def test_int64_extremes_fall_back_without_overflow(self):
        wide = np.array([I64.min, I64.max, 0, I64.min], dtype=np.int64)
        assert grouping._grid_cells([wide]) is None
        _assert_routes_agree([wide])
        _assert_routes_agree([np.arange(4), wide])
        # A narrow window at either end of int64 is still addressable.
        for origin in (I64.min, I64.max - 2):
            edge = np.array([origin + 2, origin, origin + 2], dtype=np.int64)
            assert grouping._grid_cells([edge]) is not None
            _assert_routes_agree([edge])

    def test_route_follows_dtype_and_span(self):
        def direct(*keys):
            return grouping._grid_cells([np.asarray(k) for k in keys])

        rows = np.arange(3000)
        # Q1: (l_returnflag, l_linestatus) heap codes, a 3 x 2 grid.
        assert direct((rows % 3).astype(np.int32), (rows % 2).astype(np.int32))
        # Q17: one dense key (l_partkey), far fewer values than rows.
        assert direct(rows % 200 + 1)
        assert not direct(rows.astype(np.float64))
        assert not direct(rows % 3, rows / 2)             # one float key
        assert not direct(rows * 10**12)                  # composite keys
        assert not direct(rows > 5)
        assert not direct(rows.astype(np.uint64))

    def test_grids_past_the_direct_budget_sort_by_radix(self, monkeypatch):
        # Grids of 4*10^4 .. 4*10^12 cells over 300 rows: past the
        # direct budget, within the radix one, so the cells are sorted
        # by one to three radix passes.
        rng = np.random.default_rng(7)
        orders = []
        real = grouping.stable_order
        monkeypatch.setattr(
            grouping, "stable_order",
            lambda cells, span: orders.append(span) or real(cells, span),
        )
        for width in (10**2, 10**3, 10**6):
            keys = [rng.integers(-width, width, 300) for _ in range(2)]
            orders.clear()
            _assert_routes_agree(keys)
            grid = np.prod([int(k.max() - k.min() + 1) for k in keys])
            assert grid > grouping.DIRECT_SPAN_FACTOR * 300
            assert orders[0] == grid

    def test_keyless_group_covers_every_row(self):
        g = group_rows([], 5)
        assert g.group_of_row.tolist() == [0] * 5
        assert g.representative.tolist() == [0]
        assert aggregate_count(g).tolist() == [5]
        assert aggregate_count(g).dtype == np.int64


class TestStableOrder:
    @pytest.mark.parametrize("span", [1, 2, 1 << 16, (1 << 16) + 1,
                                      1 << 32, (1 << 32) + 1, 1 << 48,
                                      (1 << 48) + 1, 1 << 62])
    def test_equals_the_stable_comparison_sort(self, span):
        rng = np.random.default_rng(span % 1000)
        cells = rng.integers(0, span, 2000, dtype=np.int64)
        cells[::7] = span - 1  # repeats, and the top of the span
        assert np.array_equal(
            stable_order(cells, span), np.argsort(cells, kind="stable")
        )

    @given(st.lists(st.integers(0, 70_000), max_size=80))
    @settings(max_examples=60)
    def test_ties_keep_row_order(self, values):
        cells = np.array(values, dtype=np.int64)
        for span in (70_001, 1 << 32, 1 << 48):
            order = stable_order(cells, span)
            assert order.tolist() == sorted(
                range(len(values)), key=lambda i: (values[i], i)
            )

    def test_ascending_test_reads_past_its_sample(self):
        cells = np.arange(5000, dtype=np.int64) // 3
        assert is_ascending(cells)
        assert stable_order(cells, 1667).tolist() == list(range(5000))
        for i in (1, 2500, 4998):               # one step down, anywhere
            broken = cells.copy()
            broken[i], broken[i + 1] = cells[i + 1], cells[i] - 1
            assert not is_ascending(broken)
            assert np.array_equal(stable_order(broken, 1667),
                                  np.argsort(broken, kind="stable"))
        assert not is_ascending(cells[::-1])
        assert is_ascending(np.array([4]))
        assert is_ascending(np.array([], dtype=np.int64))
        assert not is_ascending(np.array([1, 3, 2, 3]))


class TestSorting:
    def test_multi_key_directions(self):
        a = TypedArray(np.array([2, 1, 2]))
        b = TypedArray(np.array([5, 9, 1]))
        order = multi_key_order([(a, True), (b, False)])
        assert order.tolist() == [1, 0, 2]

    def test_string_keys_sort_by_value_not_code(self):
        heap, codes = StringHeap.from_values(["zebra", "apple"])
        arr = TypedArray(codes, Kind.STR, 0, heap)
        order = multi_key_order([(arr, True)])
        assert order.tolist() == [1, 0]

    def test_float_keys_with_negatives(self):
        arr = TypedArray(np.array([1.5, -2.0, 0.0]), Kind.FLOAT)
        order = multi_key_order([(arr, True)])
        assert order.tolist() == [1, 2, 0]

    def test_descending_floats(self):
        arr = TypedArray(np.array([1.5, -2.0, 0.0]), Kind.FLOAT)
        order = multi_key_order([(arr, False)])
        assert order.tolist() == [0, 2, 1]

    def test_stability(self):
        a = TypedArray(np.array([1, 1, 1]))
        order = multi_key_order([(a, True)])
        assert order.tolist() == [0, 1, 2]

    def test_requires_a_key(self):
        with pytest.raises(ValueError):
            multi_key_order([])

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=60))
    def test_single_key_matches_numpy(self, values):
        arr = TypedArray(np.array(values, dtype=np.int64))
        order = multi_key_order([(arr, True)])
        assert np.array_equal(np.array(values)[order], np.sort(values))
