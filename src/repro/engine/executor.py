"""The software baseline: a column-at-a-time vectorised executor.

This is the repo's MonetDB stand-in.  It executes logical plans exactly
(it is the functional ground truth AQUOMAN's device model is checked
against) while recording a :class:`~repro.perf.trace.QueryTrace` that
the host cost model turns into run times — the same structure as the
paper's trace-based simulator, with the roles swapped.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from repro.engine.operators.relational import (
    aggregate_relation,
    distinct_relation,
    filter_relation,
    join_keep,
    join_pairs,
    left_outer_relation,
    pair_relation,
    predicate_mask,
    project_relation,
    sort_relation,
)
from repro.engine.relation import (
    Relation,
    key_values,
    typed_array_from_column,
)
from repro.obs import METRICS, NULL_TRACER, NullTracer, Tracer
from repro.obs.qlog import query_scope
from repro.perf.trace import OpTrace, QueryTrace
from repro.sqlir.expr import Expr, TypedArray
from repro.sqlir.plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
)
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class Engine:
    """Executes logical plans against a catalog, tracing as it goes.

    With a ``morsels`` config (``MorselConfig(parallel=True, ...)``),
    streamable fragments — scan → Filter/Project chain → mergeable
    Aggregate/Sort/top-k — run morsel-at-a-time through the morsel
    executor (page-skip reads, optional worker processes) instead of the
    monolithic operators; results are bit-identical either way.

    ``analyze`` gates the static analyzer's type check
    (:data:`~repro.analysis.ENGINE_PASSES`) ahead of execution:
    ``"strict"`` raises :class:`~repro.analysis.PlanRejected` on any
    analyzer error,
    ``"warn"`` emits :class:`~repro.analysis.PlanAnalysisWarning` and
    proceeds, ``"off"`` (default) skips analysis entirely.
    """

    ANALYZE_MODES = ("off", "warn", "strict")

    def __init__(
        self,
        catalog: Catalog,
        trace: QueryTrace | None = None,
        *,
        morsels=None,
        analyze: str = "off",
        tracer: Tracer | NullTracer | None = None,
    ):
        if analyze not in self.ANALYZE_MODES:
            raise ValueError(
                f"analyze={analyze!r}; choose from {self.ANALYZE_MODES}"
            )
        self.catalog = catalog
        self.trace = trace if trace is not None else QueryTrace()
        # ``trace`` is the modeled data flow; ``tracer`` is the runtime
        # wall-clock (repro.obs).  Defaults to the free no-op tracer.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.morsels = morsels
        self.analyze = analyze
        # Plans this engine has analysed.  Weak, and holding the plans
        # themselves: an ``id()`` would outlive its plan and exempt the
        # next plan allocated at the same address from the gate.
        self._analyzed: weakref.WeakSet[Plan] = weakref.WeakSet()
        self._flash_layout = None

    def flash_layout(self):
        """Lazy on-flash layout (page extents for the morsel reader)."""
        if self._flash_layout is None:
            from repro.storage.layout import FlashLayout

            self._flash_layout = FlashLayout(self.catalog)
        return self._flash_layout

    # -- public API -----------------------------------------------------------

    def execute(self, plan: Plan, name: str = "result") -> Table:
        """Run a plan to completion and decode the result table."""
        return self.execute_relation(plan).to_table(name)

    def execute_relation(self, plan: Plan) -> Relation:
        # The query-lifecycle scope opens before the analysis gate so
        # the gate's span carries the query id too; when the simulator
        # (or another engine) already owns the query, this is passive.
        with query_scope(
            plan,
            query=self.trace.query,
            backend=self.backend_name(),
            tracer=self.tracer,
        ) as scope:
            self._maybe_analyze(plan, scope)
            if not self.tracer.enabled:
                return self._run(plan)
            with self.tracer.span(
                "engine.query", query=self.trace.query
            ):
                return self._run(plan)

    def backend_name(self) -> str:
        """The worker backend this engine's morsels actually run on."""
        if self.morsels is not None and self.morsels.parallel:
            return self.morsels.effective_backend()
        return "serial"

    def _maybe_analyze(self, plan: Plan, scope=None) -> None:
        """Run the gate's static passes once per plan object.

        ``strict`` rejects plans with analyzer errors before any row is
        touched; ``warn`` surfaces errors and warnings as
        :class:`~repro.analysis.PlanAnalysisWarning` and proceeds.
        """
        if self.analyze == "off" or plan in self._analyzed:
            return
        self._analyzed.add(plan)
        import warnings

        from repro.analysis import (
            PlanAnalysisWarning,
            PlanRejected,
            analyze_plan,
        )

        with self.tracer.span("analysis.gate", mode=self.analyze):
            report = analyze_plan(plan, self.catalog)
        METRICS.counter("analysis.gates_run").inc()
        if scope is not None:
            codes: dict[str, int] = {}
            for diagnostic in report.errors() + report.warnings():
                codes[diagnostic.code] = codes.get(diagnostic.code, 0) + 1
            scope.annotate(
                analysis={"ok": report.ok, "codes": codes}
            )
        if self.analyze == "strict" and not report.ok:
            raise PlanRejected(report)
        for diagnostic in report.errors() + report.warnings():
            warnings.warn(
                str(diagnostic), PlanAnalysisWarning, stacklevel=3
            )

    def scalar(self, plan: Plan) -> TypedArray:
        """Run a plan expected to produce exactly one value."""
        relation = self._run(plan)
        if relation.nrows != 1 or len(relation.columns) != 1:
            raise ValueError(
                f"scalar subquery produced shape "
                f"({relation.nrows} rows, {len(relation.columns)} cols)"
            )
        return next(iter(relation.columns.values()))

    # -- dispatch ----------------------------------------------------------------

    def _run(self, plan: Plan) -> Relation:
        if self.morsels is not None and self.morsels.parallel:
            streamed = self._run_morsel(plan)
            if streamed is not None:
                return streamed
        if not self.tracer.enabled:
            return self._account(plan)[0]
        # The span covers the whole subtree (children recurse inside
        # it); the flame summary's self-time subtracts them back out.
        # ``node`` is the analyzer's plan-node id (assign_node_ids) —
        # the join key the doctor uses to marry predictions with
        # actuals; None when the plan was never analyzed.  The volumes
        # are the recorded OpTrace's: a span adds time and lane to the
        # query record, not a second measurement.
        with self.tracer.span(
            "engine." + _OPERATORS[type(plan)][0],
            node=getattr(plan, "node_id", None),
        ) as span:
            out, op = self._account(plan)
            span.set(
                rows_out=op.rows_out,
                cols_out=len(out.columns),
                bytes_out=op.bytes_out,
            )
            return out

    def _account(self, plan: Plan) -> tuple[Relation, OpTrace]:
        """Run ``plan``'s inputs and its operator; record what it did.

        The one place a host operator enters the query record.  The
        operator returns what only it knows — output, ``detail``, group
        count, its live-set estimate — and the volumes come from the
        inputs that ran here and that output.
        """
        name, operator = _OPERATORS[type(plan)]
        inputs = [self._run(child) for child in plan.children()]
        out, detail, groups, live_bytes = operator(self, plan, *inputs)
        rows_in = bytes_in = 0
        for rel in inputs:
            rows_in += rel.nrows
            bytes_in += rel.nbytes()
        if not inputs:  # a scan's input is the base columns as stored
            table = self.catalog.table(plan.table)
            rows_in = table.nrows
            bytes_in = sum(table.column(n).nbytes for n in out.names)
        op = OpTrace(
            name, rows_in, out.nrows, bytes_in, out.nbytes(), detail, groups
        )
        self._record(plan, op)
        self.trace.observe_host_bytes(live_bytes)
        return out, op

    def _record(self, plan: Plan, op: OpTrace) -> None:
        """Recording hook: subclasses mark ``op`` before it is filed."""
        self.trace.record_op(op)

    def _run_morsel(self, plan: Plan) -> Relation | None:
        """Stream a fragment rooted at ``plan``; None = not streamable."""
        from repro.engine.morsel import MorselExecutor, extract_fragment

        fragment = extract_fragment(plan, self.catalog)
        if fragment is None:
            return None
        nrows = self.catalog.table(fragment.scan.table).nrows
        spans = self.morsels.spans_for(nrows)
        if len(spans) < 2:
            return None  # single-morsel tables gain nothing
        return MorselExecutor(self, fragment).run(spans)

    # -- operators ------------------------------------------------------------------
    # Each returns (output, detail, groups, live-set bytes).

    def _scan(self, plan: Scan):
        table = self.catalog.table(plan.table)
        names = plan.columns if plan.columns is not None else tuple(
            table.column_names
        )
        columns = {}
        for name in names:
            col = table.column(name)
            columns[name] = typed_array_from_column(col)
            self.trace.record_flash(plan.table, name, col.nbytes)
        relation = Relation(columns)
        return relation, plan.table, 0, _column_live_bytes(relation)

    def _filter(self, plan: Filter, child: Relation):
        out = filter_relation(child, plan.predicate, self.scalar)
        # Live set: a predicate column, a gather buffer, the candidate list.
        live = (
            _column_live_bytes(child) + _column_live_bytes(out)
            + out.nrows * 8
        )
        return out, "", 0, live

    def _project(self, plan: Project, child: Relation):
        out = project_relation(child, plan.outputs, self.scalar)
        return out, "", 0, (
            _column_live_bytes(child) + _column_live_bytes(out)
        )

    def _join(self, plan: Join, left: Relation, right: Relation):
        left_keys = key_values(left.column(plan.left_key))
        right_keys = key_values(right.column(plan.right_key))

        residual = None if plan.residual is None else partial(
            self._residual_mask, left, right, plan.residual
        )
        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            keep, pairs = join_keep(
                plan.kind, left_keys, right_keys, residual
            )
            out = left.mask(keep)
        else:
            li, ri, pairs = join_pairs(left_keys, right_keys, residual)
            if plan.kind is JoinKind.LEFT_OUTER:
                out = left_outer_relation(left, right, li, ri)
            else:
                out = pair_relation(left, right, li, ri)

        # Live set: both key columns, the pair lists, output gathers.
        live = (
            _column_live_bytes(left)
            + _column_live_bytes(right)
            + min(left.nrows, right.nrows) * 16  # build-side hash/ids
            + out.nrows * 16                     # (left, right) row pairs
            + _column_live_bytes(out)
        )
        return out, f"{plan.kind.value}, pairs={pairs}", 0, live

    def _residual_mask(
        self, left: Relation, right: Relation, predicate: Expr,
        li: np.ndarray, ri: np.ndarray,
    ) -> np.ndarray:
        return predicate_mask(
            pair_relation(left, right, li, ri), predicate, self.scalar
        )

    def _aggregate(self, plan: Aggregate, child: Relation):
        out, groups = aggregate_relation(child, plan, self.scalar)
        # Live set: input column + the group hash table (~48 B/entry:
        # bucket, key, slot of accumulators) + the output.
        live = (
            _column_live_bytes(child) + groups.n_groups * 48 + out.nbytes()
        )
        return out, f"groups={groups.n_groups}", groups.n_groups, live

    def _sort(self, plan: Sort, child: Relation):
        out = sort_relation(child, plan.keys)
        # A sort materialises its whole input.
        return (
            out, ",".join(k.column for k in plan.keys), 0,
            child.nbytes() + out.nbytes(),
        )

    def _limit(self, plan: Limit, child: Relation):
        out = child.take(np.arange(min(plan.count, child.nrows)))
        return out, "", 0, 0

    def _distinct(self, plan: Distinct, child: Relation):
        return distinct_relation(child), "", 0, 0


# Plan node type -> (OpTrace / span name, operator).
_OPERATORS = {
    Scan: ("scan", Engine._scan),
    Filter: ("filter", Engine._filter),
    Project: ("project", Engine._project),
    Join: ("join", Engine._join),
    Aggregate: ("aggregate", Engine._aggregate),
    Sort: ("sort", Engine._sort),
    Limit: ("limit", Engine._limit),
    Distinct: ("distinct", Engine._distinct),
}


def _column_live_bytes(relation: Relation, n_columns: int = 2) -> int:
    """Resident bytes of a column-at-a-time pass over a relation.

    MonetDB's execution materialises one BAT at a time, so the live set
    of a streaming operator is a couple of column buffers, not the whole
    relation (whose other columns stay as cold mmap'd files).
    """
    ncols = max(len(relation.columns), 1)
    return relation.nbytes() // ncols * n_columns
