"""Morsel streaming layer: splitting, fragment extraction, accounting.

The bit-for-bit differential against the monolithic engine lives in
``test_morsel_differential.py``; this file covers the pieces in
isolation — span arithmetic, which plans are (and are not) streamable,
channel striping, per-morsel page accounting, and the partial → merge
rules as properties over arbitrary span splits.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_procpool import assert_identical

from repro.engine.morsel import (
    MORSEL_ALIGN_ROWS,
    TUNED_MORSEL_ROWS,
    Fragment,
    MorselConfig,
    _WindowReads,
    _reduce,
    column_extents,
    extract_fragment,
    split_morsels,
)
from repro.engine.operators.relational import (
    _context,
    _numeric,
    aggregate_relation,
    project_relation,
    sort_relation,
)
from repro.engine.relation import Relation, SelectedArray
from repro.flash import ChannelMeter
from repro.flash.nand import FlashConfig
from repro.sqlir import AggFunc, col, lit, scan
from repro.sqlir.expr import Kind, ScalarSubquery, TypedArray, evaluate
from repro.sqlir.plan import Aggregate, AggSpec, Limit, Scan, Sort, SortKey
from repro.storage.layout import PAGE_BYTES, FlashLayout



def partial_rows(child: Relation, plan: Aggregate) -> Relation:
    """Every row of ``child`` as the partial aggregate of its own group.

    The columns ``aggregate_relation`` would give if no two rows shared
    a group (keys, then 1 for a COUNT and the evaluated operand for
    SUM / MIN / MAX), without grouping: what a pass-through span is
    charged as handing the merge.  HAVING waits for the merge.
    """
    ctx = _context(
        child, None,
        [spec.expr for spec in plan.aggregates if spec.expr is not None],
    )
    columns = {name: child.column(name) for name in plan.keys}
    for spec in plan.aggregates:
        if spec.func is AggFunc.COUNT:
            columns[spec.name] = TypedArray(
                np.ones(child.nrows, dtype=np.int64), Kind.INT, 0
            )
        else:
            values = evaluate(spec.expr, ctx)
            columns[spec.name] = TypedArray(
                _numeric(values), values.kind, values.scale
            )
    return Relation(columns)


class TestSplitMorsels:
    def test_even_split(self):
        assert split_morsels(100, 25) == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]

    def test_ragged_tail(self):
        assert split_morsels(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_span(self):
        assert split_morsels(5, 100) == [(0, 5)]

    def test_spans_partition_exactly(self):
        spans = split_morsels(123_457, 8192)
        assert spans[0][0] == 0
        assert spans[-1][1] == 123_457
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo


class TestMorselConfig:
    def test_default_is_aligned(self):
        assert TUNED_MORSEL_ROWS % MORSEL_ALIGN_ROWS == 0
        assert MorselConfig().aligned_rows() == TUNED_MORSEL_ROWS

    def test_rounds_up_to_page_quantum(self):
        assert MorselConfig(morsel_rows=1).aligned_rows() == MORSEL_ALIGN_ROWS
        assert (
            MorselConfig(morsel_rows=MORSEL_ALIGN_ROWS + 1).aligned_rows()
            == 2 * MORSEL_ALIGN_ROWS
        )

    def test_alignment_covers_every_value_width(self):
        # A morsel boundary must be a page boundary for 1/2/4/8-byte
        # columns alike — that is what makes per-morsel page sets
        # disjoint and the skip accounting exactly additive.
        for width in (1, 2, 4, 8):
            assert MORSEL_ALIGN_ROWS % (PAGE_BYTES // width) == 0


class TestExtractFragment:
    """Which plan shapes stream, and which fall back to monolithic."""

    def _frag(self, plan, db):
        return extract_fragment(plan, db)

    def test_filter_chain_streams(self, tiny_db):
        plan = (
            scan("lineitem").filter(col("l_quantity") < lit(10)).plan
        )
        frag = self._frag(plan, tiny_db)
        assert frag is not None and frag.kind == "chain"
        assert isinstance(frag.scan, Scan)
        assert len(frag.steps) == 1

    def test_bare_scan_refused(self, tiny_db):
        assert self._frag(Scan("lineitem"), tiny_db) is None

    def test_int_sum_aggregate_streams(self, tiny_db):
        plan = (
            scan("lineitem")
            .aggregate(
                keys=("l_returnflag",),
                aggs=[
                    ("n", AggFunc.COUNT, None),
                    ("qty", AggFunc.SUM, col("l_quantity")),
                    ("mx", AggFunc.MAX, col("l_quantity")),
                ],
            )
            .plan
        )
        frag = self._frag(plan, tiny_db)
        assert frag is not None and frag.kind == "aggregate"

    def test_avg_refused(self, tiny_db):
        plan = (
            scan("lineitem")
            .aggregate(aggs=[("a", AggFunc.AVG, col("l_quantity"))])
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_count_distinct_refused(self, tiny_db):
        plan = (
            scan("lineitem")
            .aggregate(
                aggs=[("d", AggFunc.COUNT_DISTINCT, col("l_orderkey"))]
            )
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_float_sum_refused(self, tiny_db):
        # discount/extendedprice are scale-2 decimals; dividing promotes
        # to float, whose addition order must not change.
        plan = (
            scan("lineitem")
            .aggregate(
                aggs=[
                    (
                        "s",
                        AggFunc.SUM,
                        col("l_extendedprice") / col("l_quantity"),
                    )
                ]
            )
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_subquery_in_filter_refused(self, tiny_db):
        sub = ScalarSubquery(
            scan("lineitem")
            .aggregate(aggs=[("m", AggFunc.MAX, col("l_quantity"))])
            .plan
        )
        plan = scan("lineitem").filter(col("l_quantity") < sub).plan
        assert self._frag(plan, tiny_db) is None

    def test_join_root_refused(self, tiny_db):
        plan = (
            scan("lineitem")
            .join(scan("orders"), "l_orderkey", "o_orderkey")
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_sort_and_topk(self, tiny_db):
        sort_plan = (
            scan("lineitem")
            .filter(col("l_quantity") < lit(20))
            .sort("l_orderkey")
            .plan
        )
        frag = self._frag(sort_plan, tiny_db)
        assert frag is not None and frag.kind == "sort"

        topk = (
            scan("lineitem")
            .filter(col("l_quantity") < lit(20))
            .sort("l_orderkey")
            .limit(10)
            .plan
        )
        frag = self._frag(topk, tiny_db)
        assert frag is not None and frag.kind == "topk"


class TestChannelMeter:
    def test_striping_is_modular(self):
        meter = ChannelMeter()
        meter.record_pages(np.arange(16, dtype=np.int64))
        assert meter.total_pages == 16
        assert list(meter.pages_read) == [2] * meter.n_channels

    def test_skew(self):
        meter = ChannelMeter(FlashConfig(n_channels=4))
        meter.record_pages(np.zeros(8, dtype=np.int64))  # all on channel 0
        assert meter.max_channel_pages == 8
        assert meter.skew == pytest.approx(4.0)

    def test_range_matches_pages(self):
        a = ChannelMeter()
        b = ChannelMeter()
        a.record_range(13, 100)
        b.record_pages(np.arange(13, 113, dtype=np.int64))
        assert list(a.pages_read) == list(b.pages_read)


def _lineitem_reads(layout, lo, hi):
    """The page accounting of a window of one span over every lineitem
    column."""
    names = [e.column for e in layout.extents() if e.table == "lineitem"]
    return _WindowReads(
        column_extents(layout, "lineitem", names), [(lo, hi)]
    )


def _totals(reads) -> tuple[dict[str, int], dict[str, int]]:
    """(pages read, pages in the window) per column."""
    return tuple(
        {name: sum(n) for name, n in counts.items()}
        for counts in reads.summary()
    )


class TestSpanReads:
    @pytest.fixture()
    def layout(self, tiny_db):
        return FlashLayout(tiny_db)

    def test_extents_are_the_layouts(self, layout):
        extents = column_extents(layout, "lineitem", ["l_shipdate"])
        ext = layout.extent("lineitem", "l_shipdate")
        assert extents == {"l_shipdate": (ext, ext.rows_per_page())}

    def test_full_span_counts_all_pages(self, tiny_db, layout):
        nrows = tiny_db.table("lineitem").nrows
        reads = _lineitem_reads(layout, 0, nrows)
        reads.full("l_quantity")
        pages_read, pages_total = _totals(reads)
        per_page = layout.extent("lineitem", "l_quantity").rows_per_page()
        assert pages_read["l_quantity"] == pages_total["l_quantity"]
        assert pages_total["l_quantity"] == -(-nrows // per_page)

    def test_row_gather_touches_unique_pages(self, layout):
        reads = _lineitem_reads(layout, 0, 8192)
        per_page = layout.extent("lineitem", "l_orderkey").rows_per_page()
        rows = np.array([0, 1, per_page, per_page + 5], dtype=np.int64)
        reads.rows("l_orderkey", rows)
        pages_read, _ = _totals(reads)
        assert pages_read["l_orderkey"] == 2  # two distinct pages
        (ids,) = reads.page_ids()
        assert len(ids) == 2

    def test_rows_then_full_is_full(self, layout):
        reads = _lineitem_reads(layout, 0, 8192)
        reads.full("l_orderkey")
        reads.rows("l_orderkey", np.array([3], dtype=np.int64))
        pages_read, pages_total = _totals(reads)
        assert pages_read["l_orderkey"] == pages_total["l_orderkey"]


    def test_one_selection_is_charged_per_value_width(
        self, layout, monkeypatch
    ):
        """Columns of one width share a page-skip answer; a narrower
        column under the same row ids is charged its own pages."""
        from repro.engine import morsel

        calls = []
        real = morsel.selection_pages

        def counting(rowids, lo, hi, per_page):
            calls.append(per_page)
            return real(rowids, lo, hi, per_page)

        # The span path's page-skip answer for an ascending selection.
        monkeypatch.setattr(morsel, "selection_pages", counting)
        wide = layout.extent("lineitem", "l_quantity").rows_per_page()
        narrow = layout.extent("lineitem", "l_partkey").rows_per_page()
        assert narrow == 2 * wide
        reads = _lineitem_reads(layout, 0, 8192)
        rows = np.array([0, wide, 3 * wide + 1], dtype=np.int64)
        for name in ("l_quantity", "l_tax", "l_partkey", "l_discount"):
            reads.rows(name, rows)
        assert calls == [wide, narrow]
        pages_read, _ = _totals(reads)
        assert pages_read == {
            "l_quantity": 3, "l_tax": 3, "l_partkey": 2, "l_discount": 3
        }
        # Other row ids are another selection, and add to the column.
        reads.rows("l_tax", np.array([5 * wide], dtype=np.int64))
        assert calls == [wide, narrow, wide]
        assert _totals(reads)[0]["l_tax"] == 4
        assert _totals(reads)[0]["l_quantity"] == 3


    @pytest.mark.parametrize(
        "column", ["l_linestatus", "l_shipdate", "l_quantity"]
    )
    def test_whole_window_selection_is_charged_like_full(
        self, tiny_db, layout, column
    ):
        """Every row selected = every page: 1-, 2- and 8-byte columns,
        on a last span that is no multiple of the page."""
        nrows = tiny_db.table("lineitem").nrows
        lo = nrows // 8192 * 8192
        if lo == nrows:
            lo -= 8192
        assert (nrows - lo) % 1024
        gathered = _lineitem_reads(layout, lo, nrows)
        gathered.rows(column, np.arange(lo, nrows))
        streamed = _lineitem_reads(layout, lo, nrows)
        streamed.full(column)
        assert _totals(gathered) == _totals(streamed)
        assert np.array_equal(
            *(np.concatenate(r.page_ids()) for r in (gathered, streamed))
        )


    def test_window_answers_per_span(self, small_db):
        """Three spans, one window: each span is charged its own pages
        of the window's flags, and its own page ids."""
        layout = FlashLayout(small_db)
        spans = [(0, 8192), (8192, 16384), (16384, 20000)]
        reads = _WindowReads(
            column_extents(layout, "lineitem", ["l_quantity", "l_tax"]),
            spans,
        )
        per_page = layout.extent("lineitem", "l_tax").rows_per_page()
        reads.full("l_quantity")
        rows = np.array([3, 5, per_page + 1, 16384, 19999])
        reads.rows("l_tax", rows)
        pages_read, pages_total = reads.summary()
        whole = [8192 // per_page, 8192 // per_page, -(-3616 // per_page)]
        assert pages_total["l_tax"] == whole
        assert pages_read["l_quantity"] == whole
        assert pages_read["l_tax"] == [2, 0, 2]
        first = layout.extent("lineitem", "l_tax").first_page
        tax = [ids[ids >= first] - first for ids in reads.page_ids()]
        assert [t.tolist() for t in tax] == [
            [0, 1], [], [16384 // per_page, 19999 // per_page]
        ]


class TestWholeWindow:
    """A selection that is the whole window reads slices, not row ids."""

    @staticmethod
    def _base_selections(rel, db) -> dict[str, str]:
        """Output column -> the lineitem column it still only selects."""
        base = db.table("lineitem")
        return {
            name: source
            for name, arr in rel.columns.items()
            if isinstance(arr, SelectedArray) and not arr.gathered
            for source in base.column_names
            if arr.source is base.column(source).values
        }

    def _stream(self, db, plan):
        from repro.engine import Engine
        from repro.perf.trace import QueryTrace

        trace = QueryTrace()
        engine = Engine(
            db, trace, morsels=MorselConfig(morsel_rows=8192, n_workers=1)
        )
        return engine.execute_relation(plan), trace

    # Q4's and Q21's late-line fragments: no CP term, so the two date
    # columns are read for the predicate under the whole window.  No
    # span gathers: every output column is the base column selected at
    # the survivors — one row array for the whole fragment — and is
    # gathered when it is read.
    @pytest.mark.parametrize("columns, project", [
        (("l_orderkey", "l_commitdate", "l_receiptdate"), False),
        (("l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"),
         True),
    ])
    def test_predicate_columns_are_never_gathered(
        self, small_db, columns, project
    ):
        from repro.engine import Engine

        node = scan("lineitem", columns).filter(
            col("l_receiptdate") > col("l_commitdate")
        )
        if project:
            node = node.project(
                l3_orderkey=col("l_orderkey"), l3_suppkey=col("l_suppkey")
            )
        streamed, trace = self._stream(small_db, node.plan)
        selected = self._base_selections(streamed, small_db)
        rest = [c for c in columns if not c.endswith("date")]
        assert sorted(selected.values()) == sorted(
            rest if project else columns
        )
        rows = {id(streamed.columns[name].rows) for name in selected}
        assert len(rows) == 1  # one row array, shared
        assert 0 < streamed.nrows < small_db.table("lineitem").nrows
        assert_identical(
            streamed, Engine(small_db).execute_relation(node.plan)
        )
        assert not self._base_selections(streamed, small_db)  # now read
        assert sum(trace.flash_pages_skipped.values()) == 0

    @pytest.mark.parametrize("predicate", [
        col("l_quantity") > lit(0),                     # a CP term
        col("l_commitdate") > col("l_shipdate") - lit(10_000),
    ])
    def test_every_row_passing_gathers_nothing(
        self, small_db, predicate
    ):
        from repro.engine import Engine

        plan = scan(
            "lineitem", ("l_orderkey", "l_quantity", "l_returnflag",
                         "l_shipdate", "l_commitdate")
        ).filter(predicate).plan
        streamed, trace = self._stream(small_db, plan)
        # No row selection at all: the base columns as a scan lifts
        # them, a narrow one widened only when it is read.
        for arr in streamed.columns.values():
            assert getattr(arr, "rows", None) is None
            assert not getattr(arr, "gathered", False)
        assert streamed.nrows == small_db.table("lineitem").nrows
        assert_identical(streamed, Engine(small_db).execute_relation(plan))
        # Charged exactly what a bare streamed scan is: every page.
        layout = FlashLayout(small_db)
        assert sum(trace.flash_pages_skipped.values()) == 0
        assert trace.flash_pages_read == {
            ("lineitem", c): layout.extent("lineitem", c).n_pages
            for c in plan.child.columns
        }


class TestSpanSetUp:
    """What is constant per fragment is worked out once, not per span."""

    def _engine(self, db):
        from repro.engine import Engine

        return Engine(
            db, morsels=MorselConfig(morsel_rows=8192, n_workers=1)
        )

    def test_selector_program_is_built_once_per_fragment(
        self, small_db, monkeypatch
    ):
        from repro.engine import Engine, morsel

        built = []
        real = morsel.extract_predicate_program

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(morsel, "extract_predicate_program", counting)
        plan = (
            scan("lineitem")
            .filter((col("l_quantity") < lit(10))
                    & (col("l_shipmode") == lit("MAIL")))
            .plan
        )
        engine = self._engine(small_db)
        streamed = engine.execute_relation(plan)
        spans = MorselConfig(morsel_rows=8192).spans_for(
            small_db.table("lineitem").nrows
        )
        assert len(spans) > 4 and len(built) == 1
        assert_identical(streamed, Engine(small_db).execute_relation(plan))

    def test_cold_pattern_is_matched_once_however_many_spans(
        self, small_db, monkeypatch
    ):
        from test_storage import _CountingScans

        from repro.engine import Engine
        from repro.obs import Tracer
        from repro.sqlir.expr import Like

        pattern = "%zq7 never asked before%"
        scans = _CountingScans(monkeypatch)
        heap = small_db.table("lineitem").column("l_comment").heap
        assert pattern not in heap._verdicts
        plan = scan("lineitem").filter(
            Like(col("l_comment"), pattern, negated=True)
        ).plan
        tracer = Tracer()
        engine = Engine(small_db, tracer=tracer, morsels=MorselConfig(
            morsel_rows=8192, n_workers=1
        ))
        for _ in range(2):  # cold, then warm
            out = engine.execute_relation(plan)
            assert out.nrows == small_db.table("lineitem").nrows
            assert scans.counts == [heap.unique_count]
        # Each run is one window over every modeled span, and the
        # pattern's verdicts outlive it.
        (fragment,) = {
            rec[6]["morsels"] for _, rec in tracer.records()
            if rec[0] == "morsel.fragment"
        }
        windows = [
            rec[6]["spans"] for _, rec in tracer.records()
            if rec[0] == "morsel.span"
        ]
        assert fragment > 4 and windows == [fragment, fragment]


# -- partial → merge, under any span split ---------------------------------

_INT_EDGE = 2 ** 62  # sums of a few of these wrap int64: still exact


_INT64 = np.iinfo(np.int64)
_ANY_INT64 = st.one_of(
    st.sampled_from([_INT64.min, _INT64.max, -1, 0, 1]),
    st.integers(_INT64.min, _INT64.max),
)


@st.composite
def _split_relations(draw, ints=st.integers(-_INT_EDGE, _INT_EDGE)):
    """A small relation, a row filter, and arbitrary cut points.

    Returns ``(whole, spans)``: the filtered relation and its filtered
    row spans.  Repeated cuts make empty spans, no cut a single span,
    and the filter empties some spans that do hold rows.
    """
    n = draw(st.integers(0, 24))
    rel = Relation({
        "k1": TypedArray(np.array(
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            dtype=np.int64)),
        "k2": TypedArray(np.array(
            draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)),
            dtype=np.int64)),
        "v": TypedArray(np.array(
            draw(st.lists(ints, min_size=n, max_size=n)),
            dtype=np.int64)),
        "d": TypedArray(np.array(
            draw(st.lists(st.integers(-999, 999), min_size=n, max_size=n)),
            dtype=np.int64), Kind.INT, 2),
        "row": TypedArray(np.arange(n, dtype=np.int64)),
    })
    keep = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        dtype=np.bool_,
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    bounds = [0, *cuts, n]
    spans = [
        rel.take(np.arange(lo, hi)).mask(keep[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return rel.mask(keep), spans


_AGGREGATES = (
    AggSpec("n", AggFunc.COUNT, None),
    AggSpec("nv", AggFunc.COUNT, col("v")),
    AggSpec("sv", AggFunc.SUM, col("v")),
    AggSpec("sd", AggFunc.SUM, col("d") * lit(2)),
    AggSpec("lo", AggFunc.MIN, col("d")),
    AggSpec("hi", AggFunc.MAX, col("v")),
)


def _partial_then_merge(spans, kind, terminal):
    """What the morsel executor computes: ``_reduce`` per span, then
    ``_reduce`` once more over the concatenated partials."""
    frag = Fragment(Scan("t"), (), terminal, kind)
    partials = [_reduce(span, frag, merge=False) for span in spans]
    return _reduce(Relation.concat(partials), frag, merge=True)


class TestMergeRules:
    """AQ4xx mergeable ⇒ bit-identical under any span split."""

    @settings(max_examples=120, deadline=None)
    @given(
        _split_relations(),
        st.sampled_from([(), ("k1",), ("k1", "k2")]),
        st.sampled_from([None, col("n") > lit(1), col("hi") < lit(0)]),
    )
    def test_aggregate(self, split, keys, having):
        whole, spans = split
        plan = Aggregate(Scan("t"), keys, _AGGREGATES, having)
        assert_identical(
            _partial_then_merge(spans, "aggregate", plan),
            aggregate_relation(whole, plan)[0],
        )

    @settings(max_examples=200, deadline=None)
    @given(
        _split_relations(_ANY_INT64),
        st.sampled_from([(), ("k1",), ("k1", "k2"), ("v",)]),
        st.sampled_from([None, col("n") > lit(1), col("hi") < lit(0)]),
        st.data(),
    )
    def test_aggregate_with_spans_passed_through(
        self, split, keys, having, data
    ):
        """Any subset of spans handed to the merge as one-row partials
        instead of reduced: merged ≡ all-reduced ≡ monolithic."""
        whole, spans = split
        plan = Aggregate(Scan("t"), keys, _AGGREGATES, having)
        frag = Fragment(Scan("t"), (), plan, "aggregate")
        passed = data.draw(
            st.lists(st.booleans(), min_size=len(spans),
                     max_size=len(spans))
        )
        partials = [
            partial_rows(span, plan) if through
            else _reduce(span, frag, merge=False)
            for span, through in zip(spans, passed)
        ]
        for span, partial in zip(spans, partials):
            reduced = _reduce(span, frag, merge=False)
            assert partial.names == reduced.names
            for name in partial.names:
                a, b = partial.column(name), reduced.column(name)
                assert (a.kind, a.scale, a.values.dtype) == (
                    b.kind, b.scale, b.values.dtype
                )
        merged = _reduce(Relation.concat(partials), frag, merge=True)
        assert_identical(
            merged, _partial_then_merge(spans, "aggregate", plan)
        )
        assert_identical(merged, aggregate_relation(whole, plan)[0])

    @settings(max_examples=120, deadline=None)
    @given(
        _split_relations(),
        st.sampled_from([
            (SortKey("k1"),),
            (SortKey("k1", ascending=False), SortKey("k2")),
            (SortKey("d", ascending=False),),
        ]),
        st.sampled_from([None, 0, 1, 5]),
    )
    def test_sort_and_topk(self, split, keys, limit):
        whole, spans = split
        sort = Sort(Scan("t"), keys)
        merged = (
            _partial_then_merge(spans, "sort", sort)
            if limit is None
            else _partial_then_merge(spans, "topk", Limit(sort, limit))
        )
        assert_identical(merged, sort_relation(whole, keys, limit))


class TestRepeatedSubtrees:
    """Q1's ``sum_charge`` operand contains ``sum_disc_price``'s.  The
    shared subtree is computed once per Project evaluation — never
    reused across two relations or two spans — and a streamed chain
    evaluates its Project once, at the merge."""

    DISC = "(col('l_extendedprice') * (lit(1, int, s=0) - col('l_discount')))"
    CHARGE = f"({DISC} * (lit(1, int, s=0) + col('l_tax')))"

    @staticmethod
    def _counted(monkeypatch) -> Counter:
        from repro.sqlir import expr as expr_module

        calls = Counter()
        real = expr_module._eval_arith

        def spy(node, ctx):
            calls[repr(node)] += 1
            return real(node, ctx)

        monkeypatch.setattr(expr_module, "_eval_arith", spy)
        return calls

    def test_once_per_relation(self, monkeypatch):
        price, discount, tax = (
            col("l_extendedprice"), col("l_discount"), col("l_tax")
        )
        outputs = (
            ("disc", price * (1 - discount)),
            ("charge", col("l_extendedprice") * (1 - col("l_discount"))
             * (1 + tax)),
        )
        calls = self._counted(monkeypatch)
        rng = np.random.default_rng(38)
        for _ in range(2):
            raw = {
                name: rng.integers(0, 10_000, 50)
                for name in ("l_extendedprice", "l_discount", "l_tax")
            }
            rel = Relation({
                name: TypedArray(values, Kind.INT, 2)
                for name, values in raw.items()
            })
            out = project_relation(rel, outputs)
            disc = raw["l_extendedprice"] * (100 - raw["l_discount"])
            assert out.column("disc").scale == 4
            assert out.column("disc").values.tolist() == disc.tolist()
            assert out.column("charge").scale == 6
            assert out.column("charge").values.tolist() == (
                disc * (100 + raw["l_tax"])
            ).tolist()
        assert calls[self.DISC] == calls[self.CHARGE] == 2
        assert calls["(lit(1, int, s=0) - col('l_discount'))"] == 2

    def test_once_per_span(self, small_db, monkeypatch):
        # Q1's SUMs alone are a mergeable aggregate: the Project under
        # it runs in every window, once over the window's rows however
        # many modeled spans the window holds.
        from dataclasses import replace

        from repro import tpch
        from repro.engine import Engine
        from repro.obs import Tracer

        q01 = tpch.query(1).child
        plan = replace(q01, aggregates=tuple(
            spec for spec in q01.aggregates if spec.func is AggFunc.SUM
        ))
        host = Engine(small_db).execute_relation(plan)
        calls = self._counted(monkeypatch)
        Engine(small_db).execute_relation(plan)
        assert calls[self.DISC] == calls[self.CHARGE] == 1
        calls.clear()
        tracer = Tracer()
        config = MorselConfig(morsel_rows=8192, n_workers=1)
        streamed = Engine(
            small_db, tracer=tracer, morsels=config
        ).execute_relation(plan)
        spans = config.spans_for(small_db.table("lineitem").nrows)
        windows = [
            rec[6]["spans"] for _, rec in tracer.records()
            if rec[0] == "morsel.span"
        ]
        assert len(spans) > 1 and windows == [len(spans)]
        assert calls[self.DISC] == calls[self.CHARGE] == len(windows)
        assert_identical(streamed, host)

    def test_once_per_chain(self, small_db, monkeypatch):
        # Q1's AVGs keep its aggregate off the span path, so the
        # Filter/Project under it streams as a chain: the spans select
        # and the merge runs the Project once over their rows.
        from repro import tpch
        from repro.engine import Engine

        plan = tpch.query(1)
        host = Engine(small_db).execute_relation(plan)
        calls = self._counted(monkeypatch)
        streamed = Engine(
            small_db, morsels=MorselConfig(morsel_rows=8192, n_workers=1)
        ).execute_relation(plan)
        assert calls[self.DISC] == calls[self.CHARGE] == 1
        assert_identical(streamed, host)
