"""A streamed chain's windows only select; the merge cuts the columns once.

A window of a ``chain`` fragment (Filter/Project steps over a scan, no
terminal) hands on the global ids of the rows it selected, and
``MorselExecutor`` cuts the base columns once and runs the upper steps
once.  What the query record saw of each span — its partial's bytes,
which ``peak_partial × workers`` charges to ``peak_host_bytes`` and so
to the host model — is derived at the merge.  These tests hold the
recorded ``peak_host_bytes``, per-column flash pages and the result to
a reference that materialises every span the way a span that cuts its
own columns does (``test_window_accounting.reference_spans``: the
span's own cut and upper steps, then ``Relation.concat``): for every
streamed chain of the 22 TPC-H plans at 8192 rows and at
``TUNED_MORSEL_ROWS``, and for two synthetic chains, on the serial and
the process backend.
"""

from collections import Counter

import numpy as np
import pytest
from test_procpool import assert_identical
from test_window_accounting import reference_spans

from repro import tpch
from repro.engine import Engine, MorselConfig
from repro.engine import procpool
from repro.engine.morsel import (
    TUNED_MORSEL_ROWS,
    MorselExecutor,
    extract_fragment,
)
from repro.engine.relation import Relation
from repro.perf.trace import QueryTrace
from repro.sqlir import col, lit, scan
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import INT32, INT64

BACKENDS = [
    ("serial", 1),
    pytest.param(
        "process", 2,
        marks=pytest.mark.skipif(
            not procpool.process_backend_available(),
            reason="no fork start method on this platform",
        ),
    ),
]
MORSEL_ROWS = (8192, TUNED_MORSEL_ROWS)


def _config(morsel_rows: int, backend: str, workers: int) -> MorselConfig:
    return MorselConfig(
        morsel_rows=morsel_rows, n_workers=workers, worker_backend=backend
    )


def _per_span_reference(db, fragment, spans, workers):
    """Every span materialised by itself, then concatenated: the
    result, each span's partial bytes, the peak the fragment charges,
    and the flash pages read and skipped per column."""
    parts = []
    read: Counter = Counter()
    skipped: Counter = Counter()
    for span in reference_spans(db, fragment, [spans]):
        parts.append(span.relation)
        for name, n in span.pages_read.items():
            key = (fragment.scan.table, name)
            read[key] += n
            skipped[key] += span.pages_total[name] - n
    result = Relation.concat(parts)
    sizes = [part.nbytes() for part in parts]
    peak = result.nbytes() + max(sizes) * max(1, workers)
    return result, sizes, peak, dict(read), dict(skipped)


def _assert_chain_matches_reference(db, fragment, spans, config):
    trace = QueryTrace()
    executor = MorselExecutor(Engine(db, trace, morsels=config), fragment)
    result = executor.run(spans)
    want, sizes, peak, read, skipped = _per_span_reference(
        db, fragment, spans, config.n_workers
    )
    assert trace.peak_host_bytes == peak
    assert trace.flash_pages_read == read
    assert trace.flash_pages_skipped == skipped
    assert [op.bytes_out for op in trace.ops] == [want.nbytes()]
    # The derived size of every span, not only the largest.
    partials = executor._execute(spans, config.effective_backend())
    assert executor._merge_chain(partials)[1].tolist() == sizes
    assert_identical(result, want)
    return partials


def _streamed_chains(db, plan, config) -> list:
    """``(fragment, spans)`` of every chain the engine streams in
    ``plan``."""
    chains = []
    real = MorselExecutor.run

    def spy(executor, spans):
        if executor.fragment.kind == "chain":
            chains.append((executor.fragment, spans))
        return real(executor, spans)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MorselExecutor, "run", spy)
        Engine(db, morsels=config).execute_relation(plan)
    return chains


class TestTpchChains:
    @pytest.mark.parametrize("backend, workers", BACKENDS)
    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    def test_derived_partials_equal_per_span_cuts(
        self, small_db, morsel_rows, backend, workers
    ):
        config = _config(morsel_rows, backend, workers)
        seen = 0
        for number in range(1, 23):
            for fragment, spans in _streamed_chains(
                small_db, tpch.query(number), config
            ):
                _assert_chain_matches_reference(
                    small_db, fragment, spans, config
                )
                seen += 1
        # At SF 0.01 lineitem's chains stream at either size (Q1's,
        # Q4's and Q21's among them), orders' only as two 8192-row
        # spans.
        assert seen == {8192: 18, TUNED_MORSEL_ROWS: 11}[morsel_rows]


# Six 8192-row spans and a ragged tail.  ``pos`` is a row's position in
# its 8192-row window and ``g`` cycles with period 7, so the bottom
# filter ``g < 6`` drops rows in every span but never a whole one.
SPAN = 8192
NROWS = 6 * SPAN + 100


@pytest.fixture(scope="module")
def synthetic_db():
    k = np.arange(NROWS, dtype=np.int64)
    catalog = Catalog()
    catalog.add_table(Table("t", [
        Column("k", INT64, k),
        Column("pos", INT32, (k % SPAN).astype(np.int32)),
        Column("g", INT32, (k % 7).astype(np.int32)),
    ]))
    return catalog


def _synthetic_plan(bottom):
    # An upper Filter over a computed Project: it keeps the first five
    # and the last row of each 8192-row window, so it keeps rows on
    # every span boundary, where an off-by-one in the span bounds
    # moves a row to the neighbouring span.
    w = col("pos") * lit(3) + lit(1)
    return (
        scan("t", ("k", "pos", "g"))
        .filter(bottom)
        .project(k=col("k"), w=w)
        .filter((col("w") < lit(16)) | (col("w") > lit(3 * (SPAN - 1))))
        .plan
    )


class TestSyntheticChains:
    @pytest.mark.parametrize("backend, workers", BACKENDS)
    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("bottom, kept_all", [
        (col("g") < lit(6), False),
        (col("g") < lit(7), True),  # every span keeps every row
    ])
    def test_derived_partials_equal_per_span_cuts(
        self, synthetic_db, bottom, kept_all, morsel_rows, backend, workers
    ):
        plan = _synthetic_plan(bottom)
        config = _config(morsel_rows, backend, workers)
        fragment = extract_fragment(plan, synthetic_db)
        assert fragment.kind == "chain" and len(fragment.steps) == 3
        spans = config.spans_for(NROWS)
        assert len(spans) > 1
        partials = _assert_chain_matches_reference(
            synthetic_db, fragment, spans, config
        )
        selected = sum(len(p.rowids) for p in partials)
        assert (selected == NROWS) == kept_all
        host = Engine(synthetic_db).execute_relation(plan)
        streamed = Engine(
            synthetic_db, morsels=config
        ).execute_relation(plan)
        assert_identical(streamed, host)
        # Rows on both sides of span boundaries survive.
        keys = streamed.column("k").values
        assert np.any((keys % SPAN == 0) & (keys > 0))
        assert np.any(keys % SPAN == SPAN - 1)
