"""A window runs its spans once; every per-span number is derived.

A ``SpanRunner`` window is a contiguous run of a fragment's modeled
spans — the whole fragment inline, one dispatched batch in a pool
worker — and runs the selector program, the leftover predicate, the
column cut and the terminal's reduce once.  The numbers the model
charges per span are derived from the window's selections: pages read
and in the span per column, page ids and stalls under fault injection,
each span's partial rows and bytes (distinct groups per span for an
aggregate) and the pass-through switch.  These tests hold all of them,
the recorded peak host bytes and the result to a reference that runs
every span by itself, as the engine did before windows
(:func:`reference_spans`): for every streamed fragment of the 22 TPC-H
plans at 8192 rows and at ``TUNED_MORSEL_ROWS``, for synthetic
fragments that start with spans selecting nothing, switch to
pass-through in mid-fragment or after the first span, sort, keep a
top-k, filter with a leftover predicate, keep every row (no id array)
or lose every group to HAVING, and for Q18's 75 k groups at SF 0.05 —
on the serial backend and on the process backend with two workers.
A lone window reduces its rows once; its merge applies only HAVING.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from test_engine_morsel import partial_rows
from test_procpool import assert_identical

from repro import tpch
from repro.engine import Engine, MorselConfig
from repro.engine import procpool
from repro.engine import morsel
from repro.engine.morsel import (
    PASSTHROUGH_GROUP_SHARE,
    TUNED_MORSEL_ROWS,
    MorselExecutor,
    SpanRunner,
    _Partial,
    _reduce,
    _WindowReads,
    run_steps,
    selection_pages,
)
from repro.engine.relation import Relation
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultPlan,
    UnrecoverableFault,
    WorkerCrash,
    get_fault_injector,
    set_fault_injector,
)
from repro.obs import NULL_TRACER
from repro.perf.trace import QueryTrace
from repro.sqlir import AggFunc, col, lit, scan
from repro.sqlir.plan import SortKey
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.layout import FlashLayout
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
# Page faults only, so every span's page ids and stalls are produced
# and no run is cut short.
PAGE_CHAOS = FaultConfig(page_error_rate=0.02, latency_spike_rate=0.05)


def config(morsel_rows: int, backend: str, workers: int) -> MorselConfig:
    return MorselConfig(
        morsel_rows=morsel_rows, n_workers=workers, worker_backend=backend
    )


# -- the per-span reference ---------------------------------------------------


class SpanReads:
    """Page accounting of one span by itself: the window of one span."""

    _FULL = None

    def __init__(self, extents, lo: int, hi: int):
        self.extents = extents
        self.lo = lo
        self.hi = hi
        self._touched: dict = {}

    def full(self, column: str) -> None:
        self._touched[column] = self._FULL

    def rows(self, column: str, rowids: np.ndarray) -> None:
        if column in self._touched and self._touched[column] is self._FULL:
            return
        flags = selection_pages(
            rowids, self.lo, self.hi, self.extents[column][1]
        )
        prev = self._touched.get(column)
        self._touched[column] = flags if prev is None else prev | flags

    def _pages(self, column: str) -> tuple[int, int]:
        per_page = self.extents[column][1]
        return self.lo // per_page, -(-self.hi // per_page)

    def summary(self) -> tuple[dict, dict]:
        pages_read, pages_total = {}, {}
        for column, touched in self._touched.items():
            first, end = self._pages(column)
            pages_total[column] = end - first
            pages_read[column] = (
                end - first if touched is self._FULL
                else int(np.count_nonzero(touched))
            )
        return pages_read, pages_total

    def page_ids(self) -> np.ndarray:
        ids = []
        for column, touched in self._touched.items():
            first, end = self._pages(column)
            pages = (
                np.arange(first, end, dtype=np.int64)
                if touched is self._FULL
                else first + np.flatnonzero(touched)
            )
            ids.append(self.extents[column][0].first_page + pages)
        return np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)


@dataclass
class Span:
    """What one span, run by itself, read and handed on."""

    relation: Relation  # its partial; a chain span's rows after the steps
    rowids: np.ndarray  # the global ids it selected
    pages_read: dict
    pages_total: dict
    passthrough: bool
    page_ids: np.ndarray | None
    stall_s: np.ndarray | None


def _check_site(injector, site: str) -> None:
    budget = injector.config.retry_budget
    attempt = 0
    while True:
        try:
            injector.check_worker(site, attempt)
            return
        except WorkerCrash as crash:
            if attempt >= budget:
                raise UnrecoverableFault(
                    f"{site} still crashing after {budget} retries",
                    site=site,
                ) from crash
            attempt += 1
            injector.record_worker_retry(site, attempt)


def run_span(runner: SpanRunner, span, state: dict) -> Span:
    """One span end to end: its fault site, its own selection and cut,
    the upper steps, its pages charged, and its own partial reduce —
    or pass-through once an earlier span of its runner showed that the
    reduce keeps more than ``PASSTHROUGH_GROUP_SHARE`` of the rows."""
    lo, hi = span
    injector = get_fault_injector()
    if injector.enabled:
        _check_site(injector, f"morsel/{runner.table.name}/{lo}-{hi}")
    reads = SpanReads(runner.extents, lo, hi)
    local, streamed = runner._select(reads)
    rel, _ = run_steps(
        runner._cut(runner.base_names, local, streamed, reads),
        runner.upper_steps,
    )
    pages_read, pages_total = reads.summary()
    page_ids = stall = None
    if injector.enabled:
        page_ids = reads.page_ids()
        stall = injector.charge_page_reads(page_ids)
    frag, through = runner.fragment, False
    if frag.kind != "chain":
        if state.get("passthrough"):
            rel, through = partial_rows(rel, frag.terminal), True
        else:
            partial = _reduce(rel, frag, merge=False)
            if (
                state.get("passthrough") is None
                and frag.kind == "aggregate" and frag.terminal.keys
                and rel.nrows
            ):
                state["passthrough"] = (
                    partial.nrows > PASSTHROUGH_GROUP_SHARE * rel.nrows
                )
            rel = partial
    rowids = np.arange(lo, hi) if local is None else lo + local
    return Span(rel, rowids, pages_read, pages_total, through,
                page_ids, stall)


def reference_spans(db, fragment, windows) -> list[Span]:
    """Every span of ``windows`` run by itself; the pass-through switch
    is decided per window, as each runner decided it."""
    runner = SpanRunner.for_catalog(
        db, FlashLayout(db), fragment, NULL_TRACER
    )
    out = []
    for window in windows:
        state: dict = {}
        out.extend(run_span(runner, span, state) for span in window)
    return out


def windows_of(spans, backend: str, workers: int) -> list:
    return (
        procpool.make_batches(spans, workers) if backend == "process"
        else [spans]
    )


def as_partial(span: Span, chain: bool) -> _Partial:
    """A reference span in the shape of a window of one span."""
    one = lambda n: np.array([n], dtype=np.int64)  # noqa: E731
    return _Partial(
        None if chain else span.relation,
        {c: [n] for c, n in span.pages_read.items()},
        {c: [n] for c, n in span.pages_total.items()},
        one(len(span.rowids) if chain else span.relation.nrows),
        None if chain else one(span.relation.nbytes()),
        np.array([span.passthrough]),
        None if span.page_ids is None else [span.page_ids],
        None if span.page_ids is None else [span.stall_s],
        span.rowids if chain else None,
    )


def per_span(partials: list[_Partial]) -> list[dict]:
    """The windows' per-span numbers, one dict per span."""
    out = []
    for p in partials:
        for s in range(len(p.passthrough)):
            out.append({
                "pages_read": {c: n[s] for c, n in p.pages_read.items()},
                "pages_total": {
                    c: n[s] for c, n in p.pages_total.items()
                },
                "rows": int(p.rows[s]),
                "passthrough": bool(p.passthrough[s]),
                "page_ids": None if p.page_ids is None else p.page_ids[s],
                "stall_s": None if p.stall_s is None else p.stall_s[s],
            })
    return out


# -- the comparison -----------------------------------------------------------


def _injector() -> FaultInjector:
    return FaultInjector(FaultPlan(11, PAGE_CHAOS))


def assert_windows_match_spans(db, fragment, spans, morsels: MorselConfig):
    """Run the fragment window by window and span by span; everything
    the model is charged must agree.  Returns the window partials."""
    backend = morsels.effective_backend()
    chain = fragment.kind == "chain"
    trace = QueryTrace()
    executor = MorselExecutor(Engine(db, trace, morsels=morsels), fragment)
    captured = []
    real = executor._execute
    executor._execute = lambda *args: captured.append(real(*args)) or (
        captured[-1]
    )
    window_faults = _injector()
    set_fault_injector(window_faults)
    try:
        result = executor.run(spans)
    finally:
        set_fault_injector(None)
    (partials,) = captured
    assert len(partials) == len(windows_of(spans, backend, 2))

    span_faults = _injector()
    set_fault_injector(span_faults)
    try:
        ref = reference_spans(
            db, fragment, windows_of(spans, backend, morsels.n_workers)
        )
    finally:
        set_fault_injector(None)
    parts = [span.relation for span in ref]
    if chain:
        want = Relation.concat(parts)
        sizes = executor._merge_chain(partials)[1].tolist()
    else:
        want = _reduce(Relation.concat(parts), fragment, merge=True,
                       subquery_executor=Engine(db).scalar)
        sizes = np.concatenate([p.nbytes for p in partials]).tolist()
    assert_identical(result, want)
    assert sizes == [part.nbytes() for part in parts]
    assert trace.peak_host_bytes == want.nbytes() + max(sizes) * max(
        1, morsels.n_workers
    )

    got = per_span(partials)
    expect = per_span([as_partial(span, chain) for span in ref])
    assert len(got) == len(expect) == len(spans)
    for s, (a, b) in enumerate(zip(got, expect)):
        for key in ("pages_read", "pages_total", "rows", "passthrough"):
            assert a[key] == b[key], (spans[s], key)
        assert np.array_equal(a["page_ids"], b["page_ids"]), spans[s]
        if b["stall_s"] is None:
            assert a["stall_s"] is None, spans[s]
        else:
            assert np.array_equal(a["stall_s"], b["stall_s"]), spans[s]

    read, skipped = Counter(), Counter()
    for span in ref:
        for name, n in span.pages_read.items():
            read[(fragment.scan.table, name)] += n
            skipped[(fragment.scan.table, name)] += (
                span.pages_total[name] - n
            )
    assert trace.flash_pages_read == dict(read)
    assert trace.flash_pages_skipped == dict(skipped)
    assert window_faults.summary() == span_faults.summary()
    assert window_faults.sorted_events() == span_faults.sorted_events()
    return partials


def streamed_fragments(db, plan, morsels) -> list:
    """``(fragment, spans)`` of every fragment the engine streams."""
    found = []
    real = MorselExecutor.run

    def spy(executor, spans):
        found.append((executor.fragment, spans))
        return real(executor, spans)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MorselExecutor, "run", spy)
        Engine(db, morsels=morsels).execute_relation(plan)
    return found


# -- TPC-H --------------------------------------------------------------------


class TestTpchFragments:
    @pytest.mark.parametrize("backend, workers", BACKENDS)
    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    def test_every_fragment_matches_per_span(
        self, small_db, morsel_rows, backend, workers
    ):
        morsels = config(morsel_rows, backend, workers)
        kinds: Counter = Counter()
        multi = wide = 0
        for number in range(1, 23):
            for fragment, spans in streamed_fragments(
                small_db, tpch.query(number), morsels
            ):
                partials = assert_windows_match_spans(
                    small_db, fragment, spans, morsels
                )
                kinds[fragment.kind] += 1
                multi += any(len(p.rows) > 1 for p in partials)
                wide += len(spans) > workers
        assert kinds["chain"] and kinds["aggregate"], kinds
        # A window is the whole fragment inline and one worker's batch,
        # its share of the spans, on the pool: it is split into spans
        # wherever a fragment has more spans than workers.
        assert multi == wide
        assert multi or (backend, morsel_rows) == ("process",
                                                   TUNED_MORSEL_ROWS)


@pytest.mark.parametrize("backend, workers", BACKENDS)
def test_q18_groups_per_span(sf05_db, backend, workers):
    """Q18's ``l_orderkey`` aggregate: 75 k groups over 300 k rows, a
    few of them split across a span boundary."""
    morsels = config(TUNED_MORSEL_ROWS, backend, workers)
    fragments = [
        (fragment, spans)
        for fragment, spans in streamed_fragments(
            sf05_db, tpch.query(18), morsels
        )
        if fragment.kind == "aggregate"
    ]
    assert fragments
    for fragment, spans in fragments:
        assert fragment.terminal.keys == ("l_orderkey",)
        partials = assert_windows_match_spans(
            sf05_db, fragment, spans, morsels
        )
        assert sum(sum(p.rows) for p in partials) > 75_000


# -- synthetic fragments ------------------------------------------------------

SPAN = 8192
NROWS = 20 * SPAN + 100
FIRST = 3 * SPAN + 5  # the first three spans select nothing


@pytest.fixture(scope="module")
def synthetic_db():
    k = np.arange(NROWS, dtype=np.int64)
    catalog = Catalog()
    catalog.add_table(Table("t", [
        Column("k", INT64, k),
        Column("pos", INT32, (k % SPAN).astype(np.int32)),
        Column("g", INT32, (k % 7).astype(np.int32)),
        Column("f", INT32.stored_as(np.int8), (k % 5).astype(np.int8)),
        Column("h", INT32.stored_as(np.int16), (k % 1000).astype(np.int16)),
    ]))
    return catalog


AGGS = [
    ("n", AggFunc.COUNT, None),
    ("s", AggFunc.SUM, col("h")),
    ("lo", AggFunc.MIN, col("f")),
    ("hi", AggFunc.MAX, col("pos")),
]


def _late():
    return scan("t").filter(col("k") >= lit(FIRST))


SYNTHETIC = {
    # Leading spans select nothing, in each terminal shape.
    "late_chain": _late().project(k=col("k"), w=col("pos") * lit(3)).plan,
    "late_groups": _late().aggregate(keys=("g",), aggs=AGGS).plan,
    "late_total": _late().aggregate(aggs=AGGS).plan,
    # Unique keys: the first span with rows keeps every row as a group,
    # so the spans after it, mid-fragment, pass their rows through.
    "passthrough": _late().aggregate(keys=("k",), aggs=AGGS).plan,
    # Keys that recur in every span, none reduced to one span's share.
    "recurring": scan("t").aggregate(keys=("h",), aggs=AGGS).plan,
    "sort": scan("t").filter(col("g") < lit(6)).sort(
        SortKey("pos", ascending=False), "k"
    ).plan,
    "topk": scan("t").filter(col("g") < lit(6)).sort(
        SortKey("pos", ascending=False), "k"
    ).limit(10).plan,
    # A CP term that skips the tail's pages, and a leftover conjunct
    # (arithmetic) that keeps the head of every 8192-row window: its
    # column is charged under the selector's rows, the others under
    # the survivors, so they skip pages the leftover column reads.
    "leftover": scan("t").filter(
        (col("k") < lit(15 * SPAN + 3000))
        & ((col("pos") * lit(2)) < lit(4000))
    ).aggregate(keys=("g",), aggs=AGGS).plan,
    "leftover_chain": scan("t").filter(
        (col("k") < lit(15 * SPAN + 3000))
        & ((col("pos") * lit(2)) < lit(4000))
    ).project(k=col("k"), f=col("f")).plan,
    # A leftover-only filter: no CP term, so its ids come from its mask.
    "leftover_only": scan("t").filter(
        (col("pos") * lit(2)) < lit(4000)
    ).project(k=col("k"), f=col("f")).plan,
    # A HAVING that keeps no group: each span is still charged its
    # partial's groups at the partial's bytes per row.
    "having_none": _late().aggregate(
        keys=("g",), aggs=AGGS, having=col("n") < lit(0)
    ).plan,
    # Unique keys from the first row on: pass-through fires after the
    # window's first span.
    "passthrough_first": scan("t").aggregate(keys=("k",), aggs=AGGS).plan,
    # Windows that keep every row (and so hold no id array): a chain
    # with no filter, an aggregate ("recurring" above) and a
    # leftover-only filter that drops nothing.
    "all_rows_chain": scan("t").project(
        k=col("k"), w=col("pos") * lit(3)
    ).plan,
    "all_rows_leftover": scan("t").filter(
        (col("pos") * lit(2)) >= lit(0)
    ).project(k=col("k"), f=col("f")).plan,
}
ALL_ROWS = ("recurring", "all_rows_chain", "all_rows_leftover")


class TestSyntheticFragments:
    @pytest.mark.parametrize("backend, workers", BACKENDS)
    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("name", SYNTHETIC)
    def test_matches_per_span(
        self, synthetic_db, name, morsel_rows, backend, workers
    ):
        morsels = config(morsel_rows, backend, workers)
        plan = SYNTHETIC[name]
        ((fragment, spans),) = streamed_fragments(
            synthetic_db, plan, morsels
        )
        assert len(spans) > 1
        partials = assert_windows_match_spans(
            synthetic_db, fragment, spans, morsels
        )
        assert_identical(
            Engine(synthetic_db, morsels=morsels).execute_relation(plan),
            Engine(synthetic_db).execute_relation(plan),
        )
        flags = np.concatenate([p.passthrough for p in partials])
        if name == "passthrough":
            # Each window switches after its first span with rows —
            # inline at 8192 rows after the three that hold none — so a
            # window of one span never does.
            multi = any(len(p.rows) > 1 for p in partials)
            assert flags.any() == multi and not flags[0]
            if backend == "serial" and morsel_rows == 8192:
                assert np.flatnonzero(~flags).tolist() == [0, 1, 2, 3]
        elif name == "passthrough_first":
            for p in partials:
                assert p.passthrough.tolist() == [False] + [True] * (
                    len(p.passthrough) - 1
                )
        else:
            assert not flags.any()
        if name == "having_none":
            assert Engine(synthetic_db).execute_relation(plan).nrows == 0
            for p in partials:
                assert np.array_equal(p.nbytes > 0, p.rows > 0)
        if name in ALL_ROWS:
            # Every window kept every row: a chain's ids are its range.
            assert all(
                isinstance(p.rowids, range) for p in partials
            ) == (fragment.kind == "chain")

    @pytest.mark.parametrize("name", ALL_ROWS)
    def test_all_rows_windows_hold_no_ids(self, synthetic_db, name):
        morsels = config(8192, "serial", 1)
        ((fragment, spans),) = streamed_fragments(
            synthetic_db, SYNTHETIC[name], morsels
        )
        runner = SpanRunner.for_catalog(
            synthetic_db, FlashLayout(synthetic_db), fragment, NULL_TRACER
        )
        reads = _WindowReads(runner.extents, spans)
        local, _ = runner._select(reads)
        assert local is None

    @pytest.mark.parametrize("name", ["late_groups", "having_none"])
    def test_lone_grouped_window_reduces_once(
        self, synthetic_db, name, monkeypatch
    ):
        calls = []
        real = morsel.aggregate_relation
        monkeypatch.setattr(
            morsel, "aggregate_relation",
            lambda *args: calls.append(args[0].nrows) or real(*args),
        )
        plan = SYNTHETIC[name]
        got = Engine(
            synthetic_db, morsels=config(8192, "serial", 1)
        ).execute_relation(plan)
        # One reduce, over every row the filter kept.
        assert calls == [NROWS - FIRST]
        assert_identical(got, Engine(synthetic_db).execute_relation(plan))

    def test_leading_empty_spans_hold_nothing(self, synthetic_db):
        morsels = config(8192, "serial", 1)
        ((fragment, spans),) = streamed_fragments(
            synthetic_db, SYNTHETIC["late_groups"], morsels
        )
        (window,) = MorselExecutor(
            Engine(synthetic_db, morsels=morsels), fragment
        )._execute(spans, "serial")
        assert window.rows[:3].tolist() == [0, 0, 0]
        assert window.rows[3:].tolist() == [7] * (len(spans) - 3)
        # Every column the survivors are read under skips the pages of
        # the spans that kept nothing; ``k``, the CP column, streams.
        for name, pages in window.pages_read.items():
            empty = pages[:3]
            assert empty == ([8, 8, 8] if name == "k" else [0, 0, 0]), name
