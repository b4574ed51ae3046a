"""Morsel streaming vs monolithic execution: bit-for-bit, plus I/O.

The streaming layer's contract is *exact* equivalence — not approximate:
every TPC-H query must produce identical values, kinds and scales
whether the engine runs monolithically or morsel-at-a-time, at any
morsel size (``tests/test_procpool.py`` holds inline spans against the
worker pool).  On top of that, the trace must show the
Table Reader's page skip actually saving flash bytes under a clustered
selective predicate, and the channel meter must account for every page.
"""

import numpy as np
import pytest

from repro import tpch
from repro.engine import Engine, MorselConfig
from repro.obs.spans import Tracer
from repro.perf.trace import QueryTrace
from repro.sqlir import AggFunc, col, lit, scan
from repro.storage.layout import PAGE_BYTES

MORSEL_SIZES = (8192, 16384)


def assert_identical(streamed, monolithic):
    """Bit-for-bit relation equality: names, values, kind, scale."""
    assert streamed.names == monolithic.names
    assert streamed.nrows == monolithic.nrows
    for name in monolithic.names:
        a, b = streamed.column(name), monolithic.column(name)
        assert a.kind is b.kind, name
        assert a.scale == b.scale, name
        assert np.array_equal(a.values, b.values), name


@pytest.fixture(scope="module")
def monolithic(small_db):
    return {
        n: Engine(small_db).execute_relation(tpch.query(n))
        for n in tpch.ALL_QUERIES
    }


class TestAllQueriesBitIdentical:
    @pytest.mark.parametrize("morsel_rows", MORSEL_SIZES)
    @pytest.mark.parametrize("n", sorted(tpch.ALL_QUERIES))
    def test_query(self, small_db, monolithic, n, morsel_rows):
        engine = Engine(
            small_db,
            morsels=MorselConfig(parallel=True, morsel_rows=morsel_rows),
        )
        assert_identical(
            engine.execute_relation(tpch.query(n)), monolithic[n]
        )

    def test_parallel_off_is_inert(self, small_db, monolithic):
        engine = Engine(small_db, morsels=MorselConfig(parallel=False))
        assert_identical(
            engine.execute_relation(tpch.query(6)), monolithic[6]
        )


def _orderkey_query(cutoff):
    """A scan whose survivors are clustered at the head of lineitem
    (orderkeys are generated in ascending order), so page skip has
    whole pages with no survivor to drop."""
    return (
        scan("lineitem")
        .filter(col("l_orderkey") < lit(cutoff))
        .aggregate(
            aggs=[
                ("n", AggFunc.COUNT, None),
                ("qty", AggFunc.SUM, col("l_quantity")),
            ]
        )
        .plan
    )


class TestPageSkip:
    def _run(self, db, cutoff):
        trace = QueryTrace()
        engine = Engine(
            db, trace, morsels=MorselConfig(morsel_rows=8192, n_workers=1)
        )
        rel = engine.execute_relation(_orderkey_query(cutoff))
        return rel, trace

    def test_clustered_predicate_skips_pages(self, small_db):
        selective, trace = self._run(small_db, 40)
        full, full_trace = self._run(small_db, 10 ** 9)

        # Same reduction shape, wildly different I/O.
        assert selective.nrows == full.nrows == 1
        assert sum(trace.flash_pages_skipped.values()) > 0
        assert trace.total_flash_bytes < full_trace.total_flash_bytes
        # The CP column streams whole; only the gathered aggregate
        # input (l_quantity) gets to skip pages.
        skipped = {
            col_: n
            for (_, col_), n in trace.flash_pages_skipped.items()
            if n > 0
        }
        assert "l_quantity" in skipped

    def test_skip_savings_are_page_granular(self, small_db):
        _, trace = self._run(small_db, 40)
        for (table, column), pages in trace.flash_pages_read.items():
            assert trace.flash_read_bytes[(table, column)] == (
                pages * PAGE_BYTES
            )

    def test_streamed_result_matches_monolithic(self, small_db):
        streamed, _ = self._run(small_db, 40)
        assert_identical(
            streamed, Engine(small_db).execute_relation(_orderkey_query(40))
        )


def wide_group_query():
    """Q20's shape with every mergeable aggregate and a HAVING: about
    as many (part, supplier) groups as rows, so a span's partial reduce
    shrinks nothing and later spans are passed through."""
    return (
        scan("lineitem")
        .filter(col("l_quantity") < lit(30))
        .aggregate(
            keys=("l_partkey", "l_suppkey"),
            aggs=[
                ("n", AggFunc.COUNT, None),
                ("nq", AggFunc.COUNT, col("l_quantity")),
                ("qty", AggFunc.SUM, col("l_quantity") * lit(3)),
                ("first", AggFunc.MIN, col("l_shipdate")),
                ("dearest", AggFunc.MAX, col("l_extendedprice")),
            ],
            having=col("n") > lit(1),
        )
        .plan
    )


def passthrough_spans(tracer):
    """``(spans, spans passed through)`` of the one streamed fragment."""
    (args,) = [
        rec[6] for _, rec in tracer.records()
        if rec[0] == "morsel.fragment"
    ]
    return args["morsels"], args["passthrough_spans"]


class TestPassThroughPartials:
    @pytest.mark.parametrize("morsel_rows", MORSEL_SIZES)
    def test_wide_group_by(self, small_db, morsel_rows):
        tracer = Tracer()
        engine = Engine(
            small_db, tracer=tracer,
            morsels=MorselConfig(morsel_rows=morsel_rows),
        )
        plan = wide_group_query()
        streamed = engine.execute_relation(plan)
        spans, passed = passthrough_spans(tracer)
        assert spans > 2 and passed == spans - 1  # all but the first
        assert 0 < streamed.nrows
        assert_identical(streamed, Engine(small_db).execute_relation(plan))

    def test_reducing_group_by_keeps_reducing(self, small_db):
        tracer = Tracer()
        engine = Engine(
            small_db, tracer=tracer, morsels=MorselConfig(morsel_rows=8192)
        )
        engine.execute_relation(tpch.query(15))  # ~100 suppliers a span
        for _, rec in tracer.records():
            if rec[0] == "morsel.fragment" and rec[6]["kind"] == "aggregate":
                assert rec[6]["passthrough_spans"] == 0
