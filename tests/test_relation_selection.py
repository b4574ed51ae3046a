"""Relations carry selections: a column is gathered when it is read.

``Relation.take`` / ``mask`` and the joins hand columns on as
:class:`SelectedArray` (source + rows); these tests pin that nothing is
gathered until an operator reads ``values``, that one read gathers once,
that columns selected together share one row array, and that every
lazy result equals the eager gather bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.operators.relational import pair_relation
from repro.engine.relation import (
    Relation,
    SelectedArray,
    select_rows,
    typed_array_from_column,
)
from repro.sqlir import col, lit, scan
from repro.sqlir.expr import (
    EvalContext,
    Kind,
    Literal,
    TypedArray,
    evaluate,
)
from repro.storage.stringheap import StringHeap


def _relation(n: int = 10) -> Relation:
    heap, codes = StringHeap.from_values([f"s{i % 3}" for i in range(n)])
    return Relation({
        "i": TypedArray(np.arange(n, dtype=np.int64) * 10),
        "d": TypedArray(np.arange(n, dtype=np.int64) + 5, Kind.INT, 2),
        "b": TypedArray(np.arange(n) % 2 == 0, Kind.BOOL),
        "s": TypedArray(codes, Kind.STR, 0, heap),
    })


def _eager(rel: Relation) -> dict[str, np.ndarray]:
    return {name: arr.values.copy() for name, arr in rel.columns.items()}


def _pending(rel: Relation) -> list[str]:
    return [
        name for name, arr in rel.columns.items()
        if isinstance(arr, SelectedArray) and not arr.gathered
    ]


class TestTake:
    def test_take_gathers_nothing(self):
        rel = _relation()
        out = rel.take(np.array([7, 2, 2]))
        assert _pending(out) == rel.names
        assert out.nrows == 3
        # Byte size is known before any gather, and is what it will be.
        codes = rel.column("s").values.itemsize
        assert out.nbytes() == 3 * (8 + 8 + 1 + codes)
        want = {n: v[[7, 2, 2]] for n, v in _eager(rel).items()}
        for name, arr in out.columns.items():
            assert arr.values.dtype == want[name].dtype
            assert np.array_equal(arr.values, want[name])
            assert arr.kind is rel.column(name).kind
            assert arr.heap is rel.column(name).heap
        assert _pending(out) == []

    def test_selections_compose_once_per_input(self):
        rel = _relation()
        twice = rel.take(np.array([9, 8, 1, 0])).mask(
            np.array([True, False, True, True])
        )
        rows = {id(arr.rows) for arr in twice.columns.values()}
        assert len(rows) == 1  # one composed row array, shared
        assert twice.column("i").rows.tolist() == [9, 1, 0]
        # ... and every column still selects from its original source.
        for name in rel.names:
            assert twice.column(name).source is rel.column(name).values

    def test_a_column_is_gathered_once(self):
        out = _relation().take(np.array([1, 3]))
        arr = out.column("i")
        first = arr.values
        assert arr.gathered and arr.values is first
        # Selecting from a gathered column composes its rows with its
        # source, as for a pending one: the selection is of the stored
        # column again, at its stored width.
        again = select_rows(arr, np.array([1]))
        assert again.source is arr.source and again.rows.tolist() == [3]
        assert not again.gathered and again.values.tolist() == [30]

    def test_a_read_key_is_selected_at_its_stored_width(self):
        """A narrow column an expression read (and widened) first is
        still handed to a later kernel at its stored width once rows
        are selected from it."""
        from repro.engine.relation import key_values

        stored = np.arange(10, dtype=np.int32) * 10
        arr = SelectedArray(stored, None, np.int64, Kind.INT)
        assert arr.values.dtype == np.int64  # read, so gathered widened
        picked = select_rows(arr, np.array([7, 2]))
        assert picked.source is stored
        assert key_values(picked).dtype == np.int32
        assert key_values(picked).tolist() == [70, 20]
        assert picked.values.dtype == np.int64

    def test_assigned_values_are_the_source(self):
        arr = _relation().take(np.array([1, 3])).column("i")
        arr.values = np.array([5, 6, 7])
        picked = select_rows(arr, np.array([2, 0]))
        assert picked.source is arr.values and picked.values.tolist() == [
            7, 5
        ]

    def test_unread_columns_of_a_query_are_never_gathered(self, tiny_db):
        """A carried column is gathered where it is finally read — here
        by nobody: the engine's output still selects from the base."""
        plan = scan(
            "lineitem", ("l_orderkey", "l_shipdate", "l_comment")
        ).filter(col("l_orderkey") < lit(100)).plan
        out = Engine(tiny_db).execute_relation(plan)
        base = tiny_db.table("lineitem")
        assert _pending(out) == out.names
        for name in out.names:  # the filter read its input's key only
            assert out.column(name).source is base.column(name).values
        keep = base.column("l_orderkey").values < 100
        assert np.array_equal(
            out.column("l_shipdate").values,
            base.column("l_shipdate").values[keep].astype(np.int64),
        )

    def test_narrow_columns_widen_only_when_read(self, tiny_db):
        dates = tiny_db.table("lineitem").column("l_shipdate")
        assert dates.values.dtype == np.int16
        lifted = typed_array_from_column(dates)
        assert isinstance(lifted, SelectedArray) and not lifted.gathered
        assert lifted.nbytes == dates.nrows * 8
        assert lifted.values.dtype == np.int64
        keys = tiny_db.table("lineitem").column("l_orderkey")
        plain = typed_array_from_column(keys)
        assert not isinstance(plain, SelectedArray)
        assert plain.values is keys.values  # shared, not copied


class TestJoinAndConcat:
    def test_pairs_select_both_sides_without_gathering(self):
        left = _relation(6)
        right = Relation({"r": TypedArray(np.arange(4, dtype=np.int64))})
        li, ri = np.array([0, 0, 5]), np.array([3, 1, 1])
        out = pair_relation(left, right, li, ri)
        assert _pending(out) == [*left.names, "r"]
        assert out.column("r").values.tolist() == [3, 1, 1]
        assert out.column("i").values.tolist() == [0, 0, 50]

    def test_concat_of_selections_of_one_source_stays_a_selection(self):
        rel = _relation(12)
        parts = [rel.take(np.array([1, 2])), rel.take(np.array([9])),
                 rel.take(np.array([], dtype=np.int64))]
        out = Relation.concat(parts)
        assert _pending(out) == rel.names
        assert len({id(a.rows) for a in out.columns.values()}) == 1
        assert out.column("i").values.tolist() == [10, 20, 90]

    def test_concat_falls_back_to_values(self):
        rel = _relation(12)
        read = rel.take(np.array([4]))
        _ = read.column("i").values  # gathered: no longer pending
        out = Relation.concat([rel.take(np.array([1])), read])
        assert "i" not in _pending(out)
        assert out.column("i").values.tolist() == [10, 40]
        assert out.column("s").values.tolist() == (
            rel.column("s").values[[1, 4]].tolist()
        )


@st.composite
def _steps(draw):
    """A chain of takes, masks and reads over a 20-row relation."""
    steps = []
    n = 20
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["take", "mask", "read"]))
        if kind == "take":
            idx = (
                draw(st.lists(st.integers(0, n - 1), max_size=25)) if n
                else []
            )
            steps.append(("take", np.array(idx, dtype=np.int64)))
            n = len(idx)
        elif kind == "mask":
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            steps.append(("mask", np.array(keep, dtype=np.bool_)))
            n = sum(keep)
        else:
            name = draw(st.sampled_from(["i", "d", "b", "s"]))
            steps.append(("read", name))
    return steps


@given(_steps())
@settings(max_examples=80, deadline=None)
def test_any_chain_of_selections_equals_the_eager_gather(steps):
    rel = _relation(20)
    eager = _eager(rel)
    for kind, arg in steps:
        if kind == "take":
            rel = rel.take(arg)
            eager = {n: v[arg] for n, v in eager.items()}
        elif kind == "mask":
            rel = rel.mask(arg)
            eager = {n: v[arg] for n, v in eager.items()}
        else:
            _ = rel.column(arg).values
        assert rel.nbytes() == sum(v.nbytes for v in eager.values())
        assert rel.nrows == len(eager["i"])
    for name, values in eager.items():
        got = rel.column(name).values
        assert got.dtype == values.dtype
        assert np.array_equal(got, values)


@pytest.mark.parametrize("literal", [
    Literal(7), Literal(2.5, Kind.FLOAT), Literal("x", Kind.STR),
])
def test_literals_broadcast_without_a_buffer(literal):
    out = evaluate(literal, EvalContext(columns={}, nrows=1000))
    assert out.values.strides == (0,)
    assert out.nbytes == 1000 * 8
    assert not out.values.flags.writeable
    assert out.kind is literal.kind
