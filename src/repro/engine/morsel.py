"""Morsel-driven parallel streaming execution.

AQUOMAN's pipeline is a *stream*: column pages leave the flash channels,
pass the Row Selector (which emits Row-Mask Vectors), feed the Row
Transformer, and are reduced by a Swissknife operator — nothing ever
holds a whole base column.  This module gives the software engine the
same shape.  A plan fragment rooted at a base-table scan is split into
page-aligned **spans** (morsels), and the partials merge with rules
that keep the result bit-identical to the monolithic executor.

**The modeled span sets the accounting; the window sets the
execution.**  A span is the unit the model charges: its pages read per
column, its partial's bytes (``peak_partial × workers`` is the
fragment's peak host bytes, and so the host model's ``sim_*``
numbers), its fault site ``morsel/{table}/{lo}-{hi}``.  The host runs a
**window** instead — a contiguous run of spans, the whole fragment
inline or one dispatched batch in a pool worker — and runs the
selector program, the leftover predicate, the column cut and the
terminal's reduce once over it.  Every per-span number is derived from
the window's selections: a column's page flags over the window are
split at the span bounds (leftover columns under the selector's rows,
the other needed columns under the final ones), each span's rows are a
search of the span bounds in the selected positions, and its partial
is what a reduce of those rows alone would hold.  A window is its rows
plus one ascending selection of them, which has no id array while it
keeps every row: a column first read under the whole window streams
as a slice, anything else is the base column selected at the
surviving rows — gathered only when an operator reads it — and
page-skip accounting asks once per selection and value width which
pages those rows land on.  The rules, per terminal:

- a Filter/Project chain's window only selects, like the Row Selector
  handing on a Row-Mask Vector: it runs the selector program and the
  leftover predicate, charges the pages of the columns the fragment
  needs, and returns the global ids of the rows it kept (a range when
  it kept every row).  The merge
  concatenates the ids in span order, cuts the needed base columns
  once (or hands on the base columns whole when every row was kept),
  and runs the upper Filter/Project steps once — row-wise pure
  expressions commute with splitting.  A span's partial is derived
  there: its output rows times the output's bytes per row;
- a window reduces its rows once; several windows' partials
  re-reduce through the same aggregate operator under
  :func:`merge_plan`: group numbering is first-appearance order, which
  composes under concatenation, and COUNT/INT-SUM/MIN/MAX are
  associative on int64.  A lone window's partial is the result less
  HAVING, which is all its merge applies.  A span's partial, read off
  the window's grouping, holds its distinct groups; once a window's
  first span with rows has shown that its reduce does not shrink it,
  the window's later spans are charged their rows as one-row
  partials;
- sort partials are presorted runs merged by one stable lexsort, so tie
  order (original row order) survives exactly; a span's partial holds
  its rows;
- top-k partials keep each run's first k rows and re-select; a span's
  partial holds at most k rows.  A lone window's sort or top-k is the
  result.

Partial and merge both call the operator functions of
:mod:`repro.engine.operators.relational` — the ones the monolithic
engine calls — so this module owns only span splitting, page
accounting, fault retry and tracing.

Aggregates whose merge would change float rounding order (AVG, SUM over
float values) and COUNT DISTINCT are *not* reduced per span: the
static analyzer's merge-safety proof
(:func:`repro.analysis.morselsafety.aggregate_merge_verdict`) refuses
that terminal, the monolithic operator runs as usual, and extraction
retries on the subtree below it.

Spans are aligned so every column's page boundary is also a span
boundary; spans therefore touch disjoint page sets and the per-span
page-skip counts add up exactly in the trace.

Two ``worker_backend`` settings run the windows (bit-identical):
``"serial"`` runs the fragment as one window inline and ``"process"``
dispatches span batches, one window each, to the persistent forked
worker pool in :mod:`repro.engine.procpool` — genuinely concurrent
interpreters over the same (copy-on-write / page-cache-shared) column
data.  Where the pool cannot be had (one worker, no ``fork``, every
worker dead) the fragment runs inline.  The per-window work lives in
:class:`SpanRunner`, which both the parent and the pool workers
instantiate; partials cross the process boundary via
:func:`pack_partial`/:func:`unpack_partial` — a chain window's as its
int64 row ids (or their range), any other as its columns' values, with
base-column string heaps replaced by name tokens so the parent
re-attaches its own heap objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.analysis.morselsafety import (
    aggregate_merge_verdict,
    streamable_chain,
)
from repro.core.row_selector import (
    PredicateProgram,
    RowSelector,
    extract_predicate_program,
)
from repro.faults.errors import UnrecoverableFault, WorkerCrash
from repro.faults.injector import get_fault_injector
from repro.engine.operators.relational import (
    aggregate_relation,
    filter_relation,
    predicate_mask,
    project_relation,
    sort_relation,
)
from repro.engine.relation import (
    Relation,
    select_rows,
    typed_array_from_column,
)
from repro.flash.channels import ChannelMeter
from repro.obs import METRICS
from repro.obs.context import set_degraded
from repro.perf.trace import OpTrace
from repro.sqlir.expr import AggFunc, ColumnRef, Expr, Kind, TypedArray
from repro.sqlir.plan import (
    AggSpec,
    Aggregate,
    Filter,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
)
from repro.storage.layout import (
    PAGE_BYTES,
    ColumnExtent,
    FlashLayout,
    selection_pages,
)
from repro.storage.stringheap import StringHeap

# An 8 KB page of 1-byte values holds 8192 rows, and every wider value
# width divides that evenly — so morsels aligned to 8192 rows start on a
# page boundary for every column of the table.
MORSEL_ALIGN_ROWS = PAGE_BYTES
# The default morsel size: four alignment quanta of rows per modeled
# span.  It sets what the model charges, not what the host executes (a
# window runs many spans at once): a larger span raises each span's
# partial, which the host model charges as peak host bytes and so as
# swap, so a change here moves ``sim_runtime_s`` and must report it
# (DESIGN.md §5, "The modeled span sets the accounting; the window sets
# the execution").
TUNED_MORSEL_ROWS = 4 * MORSEL_ALIGN_ROWS
# Cap on morsels per fragment: tiny tables otherwise shatter into
# dispatch-dominated crumbs.  Deliberately a constant (a small multiple
# of typical worker counts), NOT a function of n_workers — fault sites
# are named morsel/{table}/{lo}-{hi}, so span boundaries must reproduce
# across worker counts for fault placement to stay deterministic.
MAX_FRAGMENT_MORSELS = 32
# A span whose partial aggregate kept more than this share of its rows
# as groups did not reduce: its window's later spans are charged as
# handing their rows to the merge in partial shape, one row a group.
PASSTHROUGH_GROUP_SHARE = 0.5
# The software selector is not bound by the FPGA's 4-evaluator budget.
HOST_CP_EVALUATORS = 64

WORKER_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class MorselConfig:
    """Streaming knobs for :class:`~repro.engine.executor.Engine`."""

    parallel: bool = True        # off = monolithic execution everywhere
    morsel_rows: int = TUNED_MORSEL_ROWS
    n_workers: int = 1
    worker_backend: str = "process"  # "serial" | "process"

    def __post_init__(self):
        if self.worker_backend not in WORKER_BACKENDS:
            raise ValueError(
                f"worker_backend={self.worker_backend!r}; "
                f"choose from {WORKER_BACKENDS}"
            )

    def effective_backend(self) -> str:
        """The backend a fragment's spans actually run on.

        ``"process"`` needs more than one worker and the ``fork`` start
        method; anything less runs the spans inline.
        """
        if self.worker_backend == "serial" or self.n_workers <= 1:
            return "serial"
        from repro.engine import procpool

        if not procpool.process_backend_available():
            procpool.warn_once_no_process_backend()
            return "serial"
        return "process"

    def aligned_rows(self) -> int:
        """``morsel_rows`` rounded up to the page-alignment quantum."""
        return max(
            MORSEL_ALIGN_ROWS,
            -(-self.morsel_rows // MORSEL_ALIGN_ROWS) * MORSEL_ALIGN_ROWS,
        )

    def spans_for(self, nrows: int) -> list[tuple[int, int]]:
        """Morsel spans for a table, clamped to a bounded fan-out.

        When ``nrows`` would shatter into more than
        :data:`MAX_FRAGMENT_MORSELS` spans, the morsel size grows (page
        aligned) until the count fits — big tables keep big, cheap
        morsels instead of paying per-span dispatch overhead.
        """
        rows = self.aligned_rows()
        if nrows > rows * MAX_FRAGMENT_MORSELS:
            per = -(-nrows // MAX_FRAGMENT_MORSELS)
            rows = -(-per // MORSEL_ALIGN_ROWS) * MORSEL_ALIGN_ROWS
        return split_morsels(nrows, rows)


def split_morsels(nrows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Row spans ``[lo, hi)`` partitioning ``nrows`` into morsels."""
    return [
        (lo, min(lo + morsel_rows, nrows))
        for lo in range(0, nrows, morsel_rows)
    ]


# ---------------------------------------------------------------------------
# Fragment extraction
# ---------------------------------------------------------------------------


@dataclass
class Fragment:
    """A streamable subtree: scan → Filter/Project chain → terminal."""

    scan: Scan
    steps: tuple[Plan, ...]      # Filter/Project nodes, bottom-up order
    terminal: Plan | None        # Aggregate, Sort, or Limit-over-Sort
    kind: str                    # "chain" | "aggregate" | "sort" | "topk"

    @cached_property
    def partial_aggregate(self) -> Aggregate:
        """The Aggregate each span applies: HAVING waits for the merge,
        because a span sees only part of each group."""
        return replace(self.terminal, having=None)

    @cached_property
    def merge_aggregate(self) -> Aggregate:
        """The Aggregate that reduces the concatenated partials."""
        return merge_plan(self.terminal)


def extract_fragment(plan: Plan, catalog) -> Fragment | None:
    """Carve the largest streamable fragment rooted at ``plan``.

    Returns None when the root is not streamable (the caller's normal
    dispatch then recurses, and extraction retries on each subtree).
    """
    terminal: Plan | None = None
    kind = "chain"
    chain: Plan = plan
    if isinstance(plan, Limit) and isinstance(plan.child, Sort):
        terminal, kind, chain = plan, "topk", plan.child.child
    elif isinstance(plan, Sort):
        terminal, kind, chain = plan, "sort", plan.child
    elif isinstance(plan, Aggregate):
        terminal, kind, chain = plan, "aggregate", plan.child

    streamable = streamable_chain(chain)
    if streamable is None:
        return None
    scan, steps = streamable

    if kind == "aggregate" and not aggregate_merge_verdict(
        terminal, scan, steps, catalog
    ).mergeable:
        # Non-mergeable terminal (AVG / float SUM / COUNT DISTINCT /
        # AQ4xx): refuse the whole fragment here; the Aggregate runs
        # monolithically and extraction retries on its child chain.
        return None
    if terminal is None and not steps:
        return None  # a bare streamed scan saves the host nothing
    return Fragment(scan=scan, steps=steps, terminal=terminal, kind=kind)


def _needed_scan_columns(frag: Fragment) -> set[str] | None:
    """Scan columns the fragment actually reads (None = all of them).

    Backward dataflow from the fragment's output requirement through the
    step chain: a Project resets the requirement to the refs of its
    (needed) outputs, a Filter adds its predicate's refs.
    """
    req: set[str] | None
    if frag.kind == "aggregate":
        req = set(frag.terminal.keys)
        for spec in frag.terminal.aggregates:
            if spec.expr is not None:
                req |= spec.expr.column_refs()
    else:
        req = None  # chain/sort/topk outputs keep every column
    for step in reversed(frag.steps):
        if isinstance(step, Project):
            new: set[str] = set()
            for name, expr in step.outputs:
                if req is None or name in req:
                    new |= expr.column_refs()
            req = new
        elif req is not None:
            req |= step.predicate.column_refs()
    return req


# ---------------------------------------------------------------------------
# Morsel execution
# ---------------------------------------------------------------------------


def column_extents(
    layout: FlashLayout, table: str, names
) -> dict[str, tuple[ColumnExtent, int]]:
    """``column -> (extent, rows per page)``: what a span's page
    accounting asks of the layout, resolved once per fragment."""
    extents = {}
    for name in names:
        extent = layout.extent(table, name)
        extents[name] = (extent, extent.rows_per_page())
    return extents


class _WindowReads:
    """A window's page accounting, answered per modeled span.

    ``extents`` is :func:`column_extents` of the columns the window may
    read; ``spans`` are the window's modeled spans, contiguous and page
    aligned for every column.  A column is charged under one ascending
    selection of the window's rows (``rows``) or under all of them
    (``full``); what each span read of it is its share of the window's
    page flags.  Each question is answered once per (selection, rows
    per page), however many columns ask it; under all rows, by
    arithmetic.
    """

    _FULL = None  # sentinel: whole window streamed

    def __init__(
        self,
        extents: dict[str, tuple[ColumnExtent, int]],
        spans: list[tuple[int, int]],
    ):
        self.extents = extents
        self.spans = spans
        self.lo = spans[0][0]
        self.hi = spans[-1][1]
        # column -> flag per page of the window, or _FULL
        self._touched: dict[str, np.ndarray | None] = {}
        # The row-id array last charged, and its page flags per rows
        # per page: the columns gathered under one selection get one
        # page-skip answer per value width.
        self._selection: np.ndarray | None = None
        self._selection_pages: dict[int, np.ndarray] = {}

    def full(self, column: str) -> None:
        self._touched[column] = self._FULL

    def rows(self, column: str, rowids: np.ndarray) -> None:
        """Charge the pages holding the given ascending global row ids."""
        if column in self._touched and self._touched[column] is self._FULL:
            return
        if rowids is not self._selection:
            self._selection, self._selection_pages = rowids, {}
        per_page = self.extents[column][1]
        flags = self._selection_pages.get(per_page)
        if flags is None:
            flags = self._selection_pages[per_page] = selection_pages(
                rowids, self.lo, self.hi, per_page
            )
        prev = self._touched.get(column)
        self._touched[column] = flags if prev is None else prev | flags

    def _span_pages(self, per_page: int) -> list[int]:
        """Where each span's pages start in the window's page flags, and
        where the last one ends: one more entry than spans."""
        first = self.lo // per_page
        return [lo // per_page - first for lo, _ in self.spans] + [
            -(-self.hi // per_page) - first
        ]

    def summary(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """(pages read, pages in the span) per column, one per span.

        Lists, not arrays: a pool worker pickles them, and a list of a
        few ints pickles ten times faster than a small array.  Columns
        charged alike share one answer's lists."""
        pages_read: dict[str, list[int]] = {}
        pages_total: dict[str, list[int]] = {}
        # (id of the page flags, or None for every page; rows per page)
        # -> the answer; every flags array lives in ``_touched``.
        answers: dict[tuple[int | None, int], tuple[list, list]] = {}
        for column, touched in self._touched.items():
            per_page = self.extents[column][1]
            key = (None if touched is self._FULL else id(touched), per_page)
            answer = answers.get(key)
            if answer is None:
                bounds = self._span_pages(per_page)
                total = [b - a for a, b in zip(bounds, bounds[1:])]
                read = total if touched is self._FULL else np.add.reduceat(
                    touched, bounds[:-1], dtype=np.int64
                ).tolist()
                answer = answers[key] = (read, total)
            pages_read[column], pages_total[column] = answer
        return pages_read, pages_total

    def page_ids(self) -> list[np.ndarray]:
        """Global ids of the pages each span read, column by column:
        what the fault injector faults."""
        columns = []
        for column, touched in self._touched.items():
            ext, per_page = self.extents[column]
            bounds = self._span_pages(per_page)
            pages = (
                np.arange(bounds[-1], dtype=np.int64)
                if touched is self._FULL
                else np.flatnonzero(touched)
            )
            ids = ext.first_page + self.lo // per_page + pages
            columns.append((ids, np.searchsorted(pages, bounds)))
        return [
            np.concatenate([ids[at[s]:at[s + 1]] for ids, at in columns])
            if columns else np.empty(0, dtype=np.int64)
            for s in range(len(self.spans))
        ]


@dataclass
class _Partial:
    """One window's output, and what each of its modeled spans would
    have recorded: one entry per span in every per-span array."""

    # The window's rows under the fragment's terminal; None for a
    # chain, whose window hands on ``rowids`` instead.
    relation: Relation | None
    # column -> pages read / pages in the span
    pages_read: dict[str, list[int]]
    pages_total: dict[str, list[int]]
    # A chain span's selected rows, before the upper steps; any other
    # span's partial rows and their bytes.
    rows: np.ndarray
    nbytes: np.ndarray | None
    # The span's partial is its rows in partial shape, not reduced.
    passthrough: np.ndarray
    # Under fault injection only: global ids of the pages each span
    # read, and the per-channel stall (seconds) the injector charged
    # them, if any.
    page_ids: list[np.ndarray] | None = None
    stall_s: list[np.ndarray | None] | None = None
    # A chain window's selection: the ascending global ids of its rows
    # that pass the bottom filter, before the upper steps — a range
    # when the window kept every row.
    rowids: np.ndarray | range | None = None


class SpanRunner:
    """The per-window pipeline, decoupled from the parent Engine.

    Holds exactly the state one window needs — table, the scan columns'
    page extents, fragment, column lists and a tracer — so the same
    code runs in the parent (inline windows) and inside a forked pool
    worker (process backend), where it is rebuilt from the worker's
    inherited catalog.
    """

    def __init__(
        self,
        table,
        layout: FlashLayout,
        fragment: Fragment,
        scan_names: tuple[str, ...],
        base_names: tuple[str, ...],
        tracer,
    ):
        self.table = table
        self.extents = column_extents(layout, table.name, scan_names)
        self.fragment = fragment
        self.scan_names = scan_names
        self.base_names = base_names
        self.tracer = tracer
        # The bottom filter's selector and its program depend on the
        # fragment alone: built here, once, not per window.  A chain
        # with no bottom filter selects under the empty program.
        steps = fragment.steps
        if steps and isinstance(steps[0], Filter):
            self.bottom = self._selector_program(steps[0].predicate)
            self.upper_steps = steps[1:]
        else:
            self.bottom = (PredicateProgram(()), None, [])
            self.upper_steps = steps
        self.selector = RowSelector(n_evaluators=HOST_CP_EVALUATORS)
        # Each scan column lifted once, for windows to select from;
        # never read itself, so nothing of it is gathered or widened.
        self.lifted = {
            name: typed_array_from_column(table.column(name))
            for name in scan_names
        }

    def _selector_program(
        self, predicate: Expr
    ) -> tuple[PredicateProgram, Expr | None, list[str]]:
        """``(program, leftover, leftover's columns)`` of a scan filter."""
        scales: dict[str, int] = {}
        excluded: set[str] = set()
        for name in self.scan_names:
            kind, scale = self.table.column(name).ctype.eval_domain
            if kind is Kind.INT:
                scales[name] = scale
            else:
                excluded.add(name)
        program, leftover = extract_predicate_program(
            predicate,
            n_evaluators=HOST_CP_EVALUATORS,
            string_columns=frozenset(excluded),
            column_scales=scales,
        )
        reads = [] if leftover is None else sorted(leftover.column_refs())
        return program, leftover, reads

    @classmethod
    def for_catalog(cls, catalog, layout, fragment: Fragment, tracer):
        table = catalog.table(fragment.scan.table)
        scan_names = (
            fragment.scan.columns
            if fragment.scan.columns is not None
            else tuple(table.column_names)
        )
        needed = _needed_scan_columns(fragment)
        base_names = (
            scan_names
            if needed is None
            else tuple(n for n in scan_names if n in needed)
        )
        return cls(table, layout, fragment, scan_names, base_names, tracer)

    def heap_names(self) -> dict[int, str]:
        """``id(heap) -> column name`` for the scan's base heaps.

        The token map :func:`pack_partial` uses to ship heap references
        (not heap contents) across the process boundary.
        """
        names: dict[int, str] = {}
        for name in self.scan_names:
            heap = self.table.column(name).heap
            if heap is not None:
                # id() is a process-local heap token; only the *name*
                # string crosses the boundary (pack_partial)
                names[id(heap)] = name
        return names

    def run_window(self, spans: list[tuple[int, int]]) -> _Partial:
        """Run a window of contiguous spans once, with crash injection
        and bounded re-execution per span site.

        Every span's site is checked (and a crash retried) before the
        window does any work — the worker died picking the morsel up —
        so failed attempts charge no page reads and re-execution is
        trivially bit-identical.  Fault decisions are addressed by the
        span's stable site name, never by worker scheduling or by the
        window the span runs in, so faulted runs reproduce across
        worker counts.
        """
        injector = get_fault_injector()
        if injector.enabled:
            for lo, hi in spans:
                site = f"morsel/{self.table.name}/{lo}-{hi}"
                self._check_site(injector, site)
        return self._run_window(spans)

    def _check_site(self, injector, site: str) -> None:
        """Crash-check one span's site, retrying up to the budget."""
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
                self.tracer.instant(
                    "fault.retry", lane="faults", site=site,
                    attempt=attempt,
                )

    def _run_window(self, spans: list[tuple[int, int]]) -> _Partial:
        lo, hi = spans[0][0], spans[-1][1]
        # Each worker records into its own ring buffer, so this
        # per-window span costs no synchronisation.
        with self.tracer.span(
            "morsel.span", lo=lo, hi=hi, spans=len(spans)
        ) as tspan:
            reads = _WindowReads(self.extents, spans)
            local, streamed = self._select(reads)
            # Where each span's rows start in the selection, and where
            # the last one's end.
            at = np.array([start - lo for start, _ in spans] + [hi - lo])
            if local is not None:
                at = np.searchsorted(local, at)
            if self.fragment.kind == "chain":
                # A chain window hands on its selection: the merge cuts
                # the columns once and applies the upper steps once.
                rowids = self._charge(self.base_names, local, streamed,
                                      reads)
                if rowids is None:  # the whole window
                    rowids = range(lo, hi)
                rel = None
                rows_out = len(rowids)
            else:
                rel = self._cut(self.base_names, local, streamed, reads)
                rel, kept = run_steps(rel, self.upper_steps)
                if kept is not None:
                    at = np.searchsorted(kept, at)
                rows_out = rel.nrows
            pages_read, pages_total = reads.summary()
            injector = get_fault_injector()
            page_ids = stall = None
            if injector.enabled:
                # Charged span by span, in span order, as the spans
                # were read.
                page_ids = reads.page_ids()
                stall = [injector.charge_page_reads(ids) for ids in page_ids]
            # A chain window's rows_out is the rows it selected, before
            # the upper steps, which run at the merge.
            tspan.set(rows_out=rows_out,
                      pages_read=sum(map(sum, pages_read.values())))
            if rel is None:
                return _Partial(
                    None, pages_read, pages_total, np.diff(at), None,
                    np.zeros(len(spans), dtype=np.bool_), page_ids, stall,
                    rowids,
                )
            partial, rows, nbytes, passthrough = self._partial(rel, at)
            return _Partial(partial, pages_read, pages_total, rows, nbytes,
                            passthrough, page_ids, stall)

    def _partial(
        self, rel: Relation, at: np.ndarray
    ) -> tuple[Relation, np.ndarray, np.ndarray, np.ndarray]:
        """The window's rows under the fragment's terminal, and each
        span's partial rows, bytes and pass-through flag; span ``s``
        holds ``rel``'s rows ``at[s]:at[s + 1]``.

        A sort partial holds its span's rows, a top-k one at most k of
        them, a key-less aggregate one row and a grouped one its
        span's distinct groups, or its rows once the window passes
        them through (:meth:`_grouped_rows`).
        """
        frag = self.fragment
        rows = np.diff(at)
        through = np.zeros(len(rows), dtype=np.bool_)
        if frag.kind == "aggregate" and frag.terminal.keys and rows.any():
            partial, groups = aggregate_relation(rel, frag.partial_aggregate)
            self._grouped_rows(groups, at, rows, through)
        else:
            partial = _reduce(rel, frag, merge=False)
            if frag.kind == "topk":
                rows = np.minimum(rows, frag.terminal.count)
            elif frag.kind == "aggregate" and not frag.terminal.keys:
                rows = np.ones_like(rows)
        return partial, rows, rows * _row_bytes(partial), through

    @staticmethod
    def _grouped_rows(
        groups, at: np.ndarray, rows: np.ndarray, through: np.ndarray
    ) -> None:
        """Each span's partial rows and pass-through flag, in place,
        from the window's one grouping.

        The window reduces its rows once; what a span's own reduce would
        have kept is read off that grouping.  The first span with rows
        (the spans before it hold none) keeps the groups whose first row
        lies in it.  If those are more than
        :data:`PASSTHROUGH_GROUP_SHARE` of its rows, the window's later
        spans would skip their reduce and hand on their rows, each the
        partial of its own one-row group: they keep their row counts.
        Otherwise each span keeps its distinct groups.  A pass-through
        row's partial has the reduced partial's columns, so every span
        holds the window partial's bytes per row.
        """
        first = np.flatnonzero(rows)[0]
        head = np.searchsorted(groups.representative, at[first + 1])
        if head > PASSTHROUGH_GROUP_SHARE * rows[first]:
            through[first + 1:] = True
            rows[first] = head
        else:
            rows[:] = _groups_per_span(groups, at)

    def _select(
        self, reads: _WindowReads
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """The window's rows that pass the bottom filter, and the
        columns streamed to find them.

        A window is page-aligned (``reads`` holds its ``[lo, hi)`` and
        what was read of it) and runs one ascending selection of its
        rows: the Row Selector's first cut over the CP columns — the
        whole window under the empty program — then the leftover
        conjuncts over the survivors.  The selection is the ascending
        window-local positions, or None while it keeps every row: then
        no id array exists, and what depends on it is arithmetic.
        """
        program, leftover, leftover_reads = self.bottom
        nrows = reads.hi - reads.lo
        # CP columns stream whole: the selector sees every row.
        streamed = {
            name: self._stream(name, reads) for name in program.columns
        }
        local = None
        if len(program):
            local = self.selector.select(program, streamed, nrows).indices()
            if len(local) == nrows:
                local = None
        if leftover is not None:
            cut = self._cut(leftover_reads, local, streamed, reads)
            keep = np.flatnonzero(predicate_mask(cut, leftover))
            if len(keep) < cut.nrows:
                local = keep if local is None else local[keep]
        return local, streamed

    def _stream(self, name: str, reads: _WindowReads) -> np.ndarray:
        """The column's whole window: a view, charged every page."""
        reads.full(name)
        return self.table.column(name).slice_rows(reads.lo, reads.hi)

    def _charge(
        self,
        names: list[str] | tuple[str, ...],
        local: np.ndarray | None,
        streamed: dict[str, np.ndarray],
        reads: _WindowReads,
    ) -> np.ndarray | None:
        """Charge the named columns' pages under the window's ascending
        ``local`` rows; their global ids, or None for the whole window.

        Under the selection of every row (``local`` None) a column
        streams: a slice, charged every page, and kept in ``streamed``.
        Under any other, a column not streamed is charged only the
        pages the rows land on, so flash pages with no survivor are
        neither read nor charged — the Table Reader's page skip, end to
        end.  A column is charged under the selection it is first read
        under.
        """
        if local is None:
            for name in names:
                if name not in streamed:
                    streamed[name] = self._stream(name, reads)
            return None
        # Once per selection; a window starting at row 0 (every inline
        # window) has its positions for ids.
        rowids = reads.lo + local if reads.lo else local
        for name in names:
            if name not in streamed:
                reads.rows(name, rowids)
        return rowids

    def _cut(
        self,
        names: list[str] | tuple[str, ...],
        local: np.ndarray | None,
        streamed: dict[str, np.ndarray],
        reads: _WindowReads,
    ) -> Relation:
        """The named columns at the window's ascending ``local`` rows,
        charged by :meth:`_charge`: streamed slices under every row,
        else every column the base column selected at the rows' global
        ids, gathered when an operator reads it."""
        rowids = self._charge(names, local, streamed, reads)
        if rowids is None:
            return Relation({
                name: typed_array_from_column(
                    self.table.column(name), streamed[name]
                )
                for name in names
            })
        return Relation({
            name: select_rows(self.lifted[name], rowids) for name in names
        })


def _row_bytes(rel: Relation) -> int:
    """Bytes per row of ``rel``: every column has one fixed width."""
    return rel.nbytes() // rel.nrows if rel.nrows else 0


def _groups_per_span(groups, at: np.ndarray) -> np.ndarray:
    """How many distinct groups span ``s``'s rows ``at[s]:at[s + 1]``
    hold: the rows a span's own partial reduce would have kept.

    Numbering is first-appearance, so the groups whose first row falls
    in a span are counted by a search of the span bounds in the groups'
    first rows; only the span's rows of older groups are counted one by
    one.  Each span stamps fresh numbers into those groups' slots, and
    whichever of a group's rows the scatter keeps, exactly one per
    distinct group reads its own number back.
    """
    first = np.searchsorted(groups.representative, at)
    out = np.diff(first)
    stamp = np.full(groups.n_groups, -1, dtype=np.int64)
    base = 0
    for s in range(len(out)):
        rows = groups.group_of_row[at[s]:at[s + 1]]
        older = rows[rows < first[s]]
        if len(older):
            mine = np.arange(base, base + len(older))
            stamp[older] = mine
            out[s] += np.count_nonzero(stamp[older] == mine)
            base += len(older)
    return out


def run_steps(
    rel: Relation, steps: tuple[Plan, ...]
) -> tuple[Relation, np.ndarray | None]:
    """``rel`` under a fragment's Filter/Project steps, bottom-up, and
    the positions of ``rel``'s rows that pass the Filters (None when no
    step filters)."""
    kept = None
    for step in steps:
        if isinstance(step, Filter):
            keep = np.flatnonzero(predicate_mask(rel, step.predicate))
            rel = rel.take(keep)
            kept = keep if kept is None else kept[keep]
        else:
            rel = project_relation(rel, step.outputs)
    return rel, kept


# ---------------------------------------------------------------------------
# Partial serialization (process backend)
# ---------------------------------------------------------------------------


def pack_partial(partial: _Partial, heap_names: dict[int, str]) -> tuple:
    """Flatten a :class:`_Partial` for the worker→parent pipe.

    A chain window ships its int64 row ids, or their range.  Column
    values pickle as plain arrays (a view serialises only its own data,
    never the mmap behind it).  String heaps do **not** travel by
    content when they are base-column heaps: those become
    ``("col", name)`` tokens the
    parent resolves against its own catalog, so the merged relation
    carries the parent's heap objects exactly as inline windows would.
    Expression-built heaps (e.g. substring outputs) are inlined in
    their stored form and rebuilt verbatim.
    """
    packed_columns = None
    if partial.relation is not None:
        packed_columns = []
        for name, arr in partial.relation.columns.items():
            if arr.heap is None:
                token = None
            else:
                # same-process lookup; the shipped token is the column
                # name, never the id value
                base_name = heap_names.get(id(arr.heap))
                token = (
                    ("col", base_name)
                    if base_name is not None
                    else ("inline", *arr.heap.stored())
                )
            packed_columns.append(
                (name, np.ascontiguousarray(arr.values), arr.kind,
                 arr.scale, token)
            )
    return (
        packed_columns,
        partial.pages_read,
        partial.pages_total,
        partial.rows,
        partial.nbytes,
        partial.passthrough,
        partial.page_ids,
        partial.stall_s,
        partial.rowids,
    )


def unpack_partial(packed: tuple, table) -> _Partial:
    """Rebuild a worker's :class:`_Partial` against the parent catalog."""
    packed_columns, *fields = packed
    relation = None
    if packed_columns is not None:
        columns: dict[str, TypedArray] = {}
        for name, values, kind, scale, token in packed_columns:
            if token is None:
                heap = None
            elif token[0] == "col":
                heap = table.column(token[1]).heap
            else:
                heap = StringHeap.from_stored(*token[1:])
            columns[name] = TypedArray(values, kind, scale, heap)
        relation = Relation(columns)
    return _Partial(relation, *fields)


class MorselExecutor:
    """Runs one fragment window by window and merges the partials."""

    def __init__(self, engine, fragment: Fragment):
        self.engine = engine
        self.config: MorselConfig = engine.morsels
        self.trace = engine.trace
        self.tracer = engine.tracer
        self.fragment = fragment
        self.runner = SpanRunner.for_catalog(
            engine.catalog, engine.flash_layout(), fragment, engine.tracer
        )
        self.table = self.runner.table

    # -- driver ----------------------------------------------------------------

    def _fragment_nodes(self) -> list[int]:
        """Plan-node ids the fragment covers (doctor's join key).

        A streamed fragment subsumes several plan nodes into one span,
        so it advertises all of them; empty when the plan was never
        run through ``assign_node_ids``.
        """
        frag = self.fragment
        nodes = [frag.scan, *frag.steps]
        if frag.terminal is not None:
            nodes.append(frag.terminal)
            if frag.kind == "topk":
                nodes.append(frag.terminal.child)  # the Sort under Limit
        ids = [getattr(n, "node_id", None) for n in nodes]
        return sorted(i for i in ids if i is not None)

    def run(self, spans: list[tuple[int, int]]) -> Relation:
        backend = self.config.effective_backend()
        program, _, leftover_reads = self.runner.bottom
        with self.tracer.span(
            "morsel.fragment",
            table=self.table.name,
            kind=self.fragment.kind,
            morsels=len(spans),
            workers=self.config.n_workers,
            backend=backend,
            nodes=self._fragment_nodes(),
            rows_in=self.table.nrows,
            cp_terms=len(program),
            leftover_columns=len(leftover_reads),
        ) as fspan:
            partials = self._execute(spans, backend)
            with self.tracer.span("morsel.merge",
                                  kind=self.fragment.kind):
                if self.fragment.kind == "chain":
                    result, sizes = self._merge_chain(partials)
                else:
                    result = self._merge(partials)
                    sizes = np.concatenate([p.nbytes for p in partials])
            op = self._record(partials, result, len(spans), int(max(sizes)))
            fspan.set(rows_out=op.rows_out,
                      bytes_out=op.bytes_out,
                      passthrough_spans=int(sum(
                          p.passthrough.sum() for p in partials
                      )))
        return result

    def _execute(
        self, spans: list[tuple[int, int]], backend: str
    ) -> list[_Partial]:
        """One partial per window: the fragment's spans as one window
        inline, or one window per dispatched batch."""
        if backend == "process":
            partials = self._execute_process(spans)
            if partials is not None:
                return partials
        return [self.runner.run_window(spans)]

    def _execute_process(
        self, spans: list[tuple[int, int]]
    ) -> list[_Partial] | None:
        """Dispatch span batches to the forked pool, each run as one
        window; None = no pool.

        Replies repatriate each worker's span records and fault deltas
        before any fault is re-raised, so the counters of every window
        that ran reach the parent.  Batches lost to a dead worker
        re-run inline — a window is a pure function of its spans.
        """
        from repro.engine import procpool

        pool = procpool.get_process_pool(
            self.engine.catalog, self.config.n_workers
        )
        if pool is None:
            return None
        batches = procpool.make_batches(spans, pool.n_workers)
        requests = [(self.fragment, batch) for batch in batches]
        try:
            replies = pool.run(requests, procpool.batch_opts(self.tracer))
        except procpool.PoolBroken:
            # Every worker is dead: the caller runs the spans inline.
            procpool.warn_once_no_process_backend()
            return None
        injector = get_fault_injector()
        partials: list[_Partial] = []
        failure = None
        for reply, batch in zip(replies, batches):
            if reply.status == "lost":
                partials.append(self.runner.run_window(batch))
                continue
            procpool.absorb_obs(reply, self.tracer, injector)
            if reply.status == "done":
                partials.append(unpack_partial(reply.result, self.table))
            elif reply.status == "fault":
                if failure is None:
                    failure = reply
            else:  # "err": a real bug in the worker, not an injection
                raise RuntimeError(
                    f"morsel worker failed:\n{reply.message}"
                )
        if failure is not None:
            if failure.degraded:
                info = dict(failure.degraded)
                set_degraded(info.pop("reason", "worker fault"), **info)
            raise UnrecoverableFault(failure.message, site=failure.site)
        return partials

    def _merge(self, partials: list[_Partial]) -> Relation:
        """The fragment's result from its windows' partials.

        A lone window reduced every row of the fragment at once, so its
        partial is the result less an aggregate's HAVING, which is all
        that is left to apply; several windows' partials reduce again
        under the terminal's merge form."""
        frag = self.fragment
        if len(partials) > 1:
            return _reduce(
                Relation.concat([p.relation for p in partials]), frag,
                merge=True, subquery_executor=self.engine.scalar,
            )
        result = partials[0].relation
        if frag.kind == "aggregate" and frag.terminal.having is not None:
            result = filter_relation(
                result, frag.terminal.having, self.engine.scalar
            )
        return result

    def _merge_chain(
        self, partials: list[_Partial]
    ) -> tuple[Relation, np.ndarray]:
        """A chain's output from its windows' selections, and the bytes
        of each span's partial as a span that cut its own columns would
        have held them.

        The needed base columns are cut once at the concatenated row
        ids — or, when every window kept every row (each window's ids a
        range), are the base columns whole, lifted as a scan lifts
        them — and the upper steps run once.  A
        span's partial is its output rows (its ids less what an upper
        Filter drops, found from the span bounds in the surviving
        positions) times the output's bytes per row, so the recorded
        peak is the one per-span materialisation would give.
        """
        runner = self.runner
        counts = np.concatenate([p.rows for p in partials])
        if all(isinstance(p.rowids, range) for p in partials):
            # The base columns freshly lifted, as a scan hands them on:
            # a reader gathers nothing and widens only what it reads.
            rel = Relation({
                name: typed_array_from_column(self.table.column(name))
                for name in runner.base_names
            })
        else:
            ids = [
                np.arange(p.rowids.start, p.rowids.stop)
                if isinstance(p.rowids, range) else p.rowids
                for p in partials
            ]
            rel = Relation({
                name: runner.lifted[name] for name in runner.base_names
            }).take(ids[0] if len(ids) == 1 else np.concatenate(ids))
        rel, kept = run_steps(rel, runner.upper_steps)
        rows_out = counts
        if kept is not None:
            bounds = np.concatenate(([0], np.cumsum(counts)))
            rows_out = np.diff(np.searchsorted(kept, bounds))
        return rel, rows_out * _row_bytes(rel)

    # -- trace -----------------------------------------------------------------------

    def _record(
        self, partials: list[_Partial], result: Relation, n_spans: int,
        peak_partial: int,
    ) -> OpTrace:
        """File the fragment in the query record; the op it filed.
        ``peak_partial`` is the largest span partial's bytes."""
        table = self.table.name
        pages_read: dict[str, int] = {}
        pages_total: dict[str, int] = {}
        for p in partials:
            for name, n in p.pages_read.items():
                pages_read[name] = pages_read.get(name, 0) + sum(n)
            for name, n in p.pages_total.items():
                pages_total[name] = pages_total.get(name, 0) + sum(n)
        injector = get_fault_injector()
        if injector.enabled:
            # What a stall costs is what it adds on the slowest channel,
            # so the stripe's per-channel page load is the base.
            meter = ChannelMeter()
            for p in partials:
                for page_ids, stall in zip(p.page_ids, p.stall_s):
                    meter.record_pages(page_ids)
                    meter.record_stalls(stall)
            # Whole-channel stalls hit every stream crossing the stripe.
            meter.record_stalls(
                injector.channel_stall_seconds(meter.n_channels)
            )
            self.trace.fault_stall_s += meter.stall_marginal_seconds()
        for name in pages_read:
            self.trace.record_flash_pages(
                table, name, pages_read[name], pages_total[name],
                PAGE_BYTES,
            )
        n_read = sum(pages_read.values())
        n_total = sum(pages_total.values())
        METRICS.counter("flash.pages_read").inc(n_read)
        METRICS.counter("flash.pages_skipped").inc(n_total - n_read)
        METRICS.counter("morsel.rows_streamed").inc(self.table.nrows)
        METRICS.histogram("morsel.rows_out").observe(result.nrows)
        op = OpTrace(
            "scan",
            rows_in=self.table.nrows,
            rows_out=result.nrows,
            bytes_in=n_read * PAGE_BYTES,
            bytes_out=result.nbytes(),
            detail=(
                f"{table},morsels={n_spans},"
                f"workers={self.config.n_workers},{self.fragment.kind}"
            ),
        )
        self.trace.record_op(op)
        self.trace.observe_host_bytes(
            op.bytes_out + peak_partial * max(1, self.config.n_workers)
        )
        return op


_MERGE_FUNC = {
    AggFunc.COUNT: AggFunc.SUM,
    AggFunc.SUM: AggFunc.SUM,
    AggFunc.MIN: AggFunc.MIN,
    AggFunc.MAX: AggFunc.MAX,
}


def merge_plan(plan: Aggregate) -> Aggregate:
    """The Aggregate that reduces concatenated partials of ``plan``.

    Each partial column is re-reduced under its own name (counts and
    sums add, minima and maxima nest), then the original HAVING
    applies.  Re-grouping the concatenated key rows reproduces the
    monolithic group order: first-appearance numbering composes under
    concatenation in morsel (= row) order.  Exact only for the
    int64-associative aggregates the merge-safety verdict admits;
    anything else has no merge rule here.
    """
    return replace(
        plan,
        aggregates=tuple(
            AggSpec(spec.name, _MERGE_FUNC[spec.func], ColumnRef(spec.name))
            for spec in plan.aggregates
        ),
    )


def _reduce(
    rel: Relation, frag: Fragment, merge: bool, subquery_executor=None
) -> Relation:
    """Apply a fragment's terminal: to one span's rows (the partial),
    or with ``merge`` to the concatenated partials of every span."""
    terminal = frag.terminal
    if frag.kind == "chain":
        return rel
    if frag.kind == "sort":
        return sort_relation(rel, terminal.keys)
    if frag.kind == "topk":
        return sort_relation(rel, terminal.child.keys, terminal.count)
    plan = frag.merge_aggregate if merge else frag.partial_aggregate
    return aggregate_relation(rel, plan, subquery_executor)[0]
