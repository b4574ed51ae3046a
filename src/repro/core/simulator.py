"""The AQUOMAN simulator: hybrid device + host query execution.

This is the repo's analogue of the paper's trace-based simulator
integrated into MonetDB (Sec. VII): it executes the *real* plan — the
functional results are bit-identical to the software baseline — while
routing maximal offloadable subtrees through the device model and
recording a combined :class:`~repro.perf.trace.QueryTrace`:

- device subtrees stream from flash through the Row Selector / PE
  array / Swissknife with page-skip traffic accounting, DRAM residency
  and group-by spill stats;
- the non-offloaded remainder runs on the host engine, whose operator
  records feed the host cost model;
- runtime suspensions (DRAM overflow, condition 4) roll the subtree
  back to the host, the paper's conservative assumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.analysis.suspend import subtree_reduces as _subtree_reduces
from repro.core.compiler import (
    CompiledQuery,
    OffloadDecision,
    QueryCompiler,
    REAL_SUSPENSIONS,
    SuspendReason,
)
from repro.core.device import AquomanDevice, DeviceConfig
from repro.core.memory import MemoryExceeded
from repro.faults.errors import DeviceFault
from repro.faults.injector import get_fault_injector
from repro.core.regex_accel import HeapTooLarge
from repro.core.row_selector import extract_predicate_program
from repro.core.swissknife.groupby import HASH_BUCKETS, zip_group_columns
from repro.engine.executor import Engine
from repro.engine.operators.relational import (
    aggregate_relation,
    distinct_relation,
    join_keep,
    join_pairs,
    pair_relation,
)
from repro.engine.relation import Relation, typed_array_from_column
from repro.obs import METRICS, NULL_TRACER, NullTracer, Tracer
from repro.obs.qlog import query_scope
from repro.perf.trace import OpTrace, QueryTrace
from repro.sqlir.expr import ColumnRef, Expr, Kind, TypedArray
from repro.sqlir.plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Plan,
    Project,
    Scan,
)
from repro.storage.catalog import join_index_name
from repro.storage.layout import ColumnExtent, FlashLayout
from repro.storage.table import Table


@dataclass
class SimulationResult:
    """Everything one simulated query run produced."""

    table: Table
    relation: Relation
    trace: QueryTrace
    compiled: CompiledQuery
    suspend_reasons: set[SuspendReason]
    device: AquomanDevice | None = None

    @property
    def offloaded(self) -> bool:
        return self.trace.aquoman_flash_bytes > 0


@dataclass
class _DeviceRel:
    """A device-resident intermediate during subtree execution."""

    relation: Relation
    # base table -> RowID per current row (for join indices & page skip)
    rowid_map: dict[str, np.ndarray]
    # relation column -> (base table, base column) for pass-throughs
    origin: dict[str, tuple[str, str]]
    charged: set[tuple[str, str]]
    # (base table, rows per page) -> page flags under ``rowid_map``: the
    # columns of one table share a selection, so its page-skip answer
    # is worked out once per value width.  Valid only for this
    # ``rowid_map`` — whatever re-selects rows starts empty.
    pages: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)

    def touched_pages(self, extent: ColumnExtent) -> np.ndarray:
        """Pages of ``extent`` the current selection lands on, memoised."""
        key = (extent.table, extent.rows_per_page())
        flags = self.pages.get(key)
        if flags is None:
            flags = self.pages[key] = extent.touched_pages(
                self.rowid_map[extent.table]
            )
        return flags

    def gathered(self, indices: np.ndarray) -> "_DeviceRel":
        return _DeviceRel(
            relation=self.relation.take(indices),
            rowid_map={
                t: ids[indices] for t, ids in self.rowid_map.items()
            },
            origin=dict(self.origin),
            charged=self.charged,
        )

    def masked(self, keep: np.ndarray) -> "_DeviceRel":
        return self.gathered(np.flatnonzero(keep))


class DeviceExecutor:
    """Runs one offloadable subtree on the device model."""

    _names = itertools.count()

    def __init__(self, device: AquomanDevice, scalar_executor):
        self.device = device
        self.catalog = device.catalog
        self.tracer = device.tracer
        self.scalar_executor = scalar_executor
        self.rows_processed = 0
        self.spilled_rows = 0  # group-by rows the host must accumulate
        self._allocations: list[str] = []

    # -- entry ----------------------------------------------------------------

    def run(self, plan: Plan) -> Relation:
        try:
            dev = self._exec(plan)
            with self.tracer.span("device.output_dma", lane="device"):
                self._finalize_output(dev)
            return dev.relation
        finally:
            for name in self._allocations:
                if self.device.memory.holds(name):
                    self.device.memory.free(name)
            self._allocations.clear()

    def _finalize_output(self, dev: _DeviceRel) -> None:
        """Charge pass-through columns and meter the DMA back to host."""
        for name in dev.relation.names:
            self._consume(dev, name)
        self.device.meters.output_bytes += dev.relation.nbytes()

    # -- traffic -----------------------------------------------------------------

    def _consume(
        self, dev: _DeviceRel, column: str, whole_if_all_rows: bool = True
    ) -> None:
        """Meter the flash read feeding a column, once, page-skipped."""
        origin = dev.origin.get(column)
        if origin is None or origin in dev.charged:
            return
        self._charge(dev, *origin, whole_if_all_rows)
        dev.charged.add(origin)

    def _charge(
        self, dev: _DeviceRel, table: str, column: str,
        whole_if_all_rows: bool = True,
    ) -> None:
        """Charge the pages of a base column that ``dev``'s rows touch.

        A selection as long as the table streams the whole column file
        without looking at the row ids; the join-index gather opts out
        because its row ids repeat.
        """
        extent = self.device.layout.extent(table, column)
        rowids = dev.rowid_map.get(table)
        if rowids is None or (
            whole_if_all_rows and len(rowids) == extent.nrows
        ):
            self.device.charge_pages(extent)
        else:
            self.device.charge_pages(extent, dev.touched_pages(extent))

    # -- dispatch ----------------------------------------------------------------

    def _exec(self, plan: Plan) -> _DeviceRel:
        handler = {
            Scan: self._exec_scan,
            Filter: self._exec_filter,
            Project: self._exec_project,
            Join: self._exec_join,
            Aggregate: self._exec_aggregate,
            Distinct: self._exec_distinct,
        }.get(type(plan))
        if handler is None:
            raise NotImplementedError(
                f"device cannot execute {type(plan).__name__}"
            )
        if not self.tracer.enabled:
            return handler(plan)
        # ``node`` mirrors the engine spans: the analyzer's plan-node
        # id, the doctor's key for joining predictions to actuals.
        with self.tracer.span(
            "device." + type(plan).__name__.lower(), lane="device",
            node=getattr(plan, "node_id", None),
        ) as span:
            out = handler(plan)
            span.set(
                rows_out=out.relation.nrows,
                bytes_out=out.relation.nbytes(),
            )
            return out

    # -- operators ------------------------------------------------------------------

    def _exec_scan(self, plan: Scan) -> _DeviceRel:
        table = self.catalog.table(plan.table)
        names = plan.columns if plan.columns is not None else tuple(
            table.column_names
        )
        columns = {
            n: typed_array_from_column(table.column(n)) for n in names
        }
        rowids = np.arange(table.nrows, dtype=np.int64)
        self.rows_processed += table.nrows
        return _DeviceRel(
            relation=Relation(columns),
            rowid_map={plan.table: rowids},
            origin={n: (plan.table, n) for n in names},
            charged=set(),
        )

    def _exec_filter(self, plan: Filter) -> _DeviceRel:
        dev = self._exec(plan.child)
        nrows = dev.relation.nrows
        self.rows_processed += nrows

        string_columns = frozenset(
            n
            for n, arr in dev.relation.columns.items()
            if arr.kind is Kind.STR
        )
        program, leftover = extract_predicate_program(
            plan.predicate,
            n_evaluators=self.device.config.n_predicate_evaluators,
            string_columns=string_columns,
            column_scales={
                n: arr.scale
                for n, arr in dev.relation.columns.items()
                if arr.kind is Kind.INT
            },
        )

        # Row Selector: CP columns stream in full (under the current
        # mask) and produce the first-cut row mask.
        with self.tracer.span(
            "device.row_selector", lane="device.row_selector",
            rows_in=nrows,
        ):
            for term in program.terms:
                self._consume(dev, term.column)
            # One cast per distinct CP column, not one per term.
            cast: dict[str, np.ndarray] = {}
            for name in program.columns:
                values = dev.relation.column(name).values
                if values.dtype != np.int64:
                    values = values.astype(np.int64)
                cast[name] = values
            keep = np.ones(nrows, dtype=np.bool_)
            for term in program.terms:
                keep &= term.evaluate(cast[term.column])
            self.device.meters.rows_selected += int(keep.sum())
            selected = dev.masked(keep)

        if leftover is not None:
            # Forwarded to the Row Transformer (Sec. VI-A): remaining
            # columns stream under the selector's mask.
            with self.tracer.span(
                "device.transformer", lane="device.transformer",
                rows_in=selected.relation.nrows,
            ):
                for name in sorted(leftover.column_refs()):
                    self._consume(selected, name)
                self.device.meters.rows_transformed += (
                    selected.relation.nrows
                )
                mask_rel = self.device._transform(
                    (("@mask", leftover),),
                    selected.relation.columns,
                    selected.relation.nrows,
                    subquery_executor=self.scalar_executor,
                )
                keep2 = mask_rel.column("@mask").values.astype(np.bool_)
                selected = selected.masked(keep2)
        return selected

    def _exec_project(self, plan: Project) -> _DeviceRel:
        dev = self._exec(plan.child)
        nrows = dev.relation.nrows
        self.rows_processed += nrows

        for _, expr in plan.outputs:
            for name in sorted(expr.column_refs()):
                self._consume(dev, name)

        with self.tracer.span(
            "device.transformer", lane="device.transformer",
            rows_in=nrows,
        ):
            transformed = self.device._transform(
                plan.outputs,
                dev.relation.columns,
                nrows,
                subquery_executor=self.scalar_executor,
            )
        self.device.meters.rows_transformed += nrows

        origin: dict[str, tuple[str, str]] = {}
        for name, expr in plan.outputs:
            if isinstance(expr, ColumnRef) and expr.name in dev.origin:
                origin[name] = dev.origin[expr.name]
        return _DeviceRel(
            relation=transformed,
            rowid_map=dev.rowid_map,
            origin=origin,
            charged=dev.charged,
            pages=dev.pages,
        )

    # -- joins ---------------------------------------------------------------------

    def _exec_join(self, plan: Join) -> _DeviceRel:
        if plan.kind is JoinKind.LEFT_OUTER:
            # Never offloaded by the compiler; no NULL padding here.
            raise NotImplementedError(
                f"device cannot execute {plan.kind.name} Join"
            )
        left = self._exec(plan.left)
        right = self._exec(plan.right)
        self.rows_processed += left.relation.nrows + right.relation.nrows

        shortcut = self._try_join_index(plan, left, right)
        if shortcut is not None:
            return shortcut

        self._consume(left, plan.left_key)
        self._consume(right, plan.right_key)
        left_keys = left.relation.column(plan.left_key).values
        right_keys = right.relation.column(plan.right_key).values

        # Sort-merge: one side's sorted keys (plus RowIDs for inner
        # joins, plus residual columns) live in device DRAM, the other
        # re-streams against it (Sec. VI-C/VI-D).  The natural Table
        # Task order stores the build (right) side; when that overflows
        # DRAM the compiler swaps probe and build before giving up.
        key_bytes = 8
        payload_bytes = 8 if plan.kind is JoinKind.INNER else 0
        residual_bytes = 8 if plan.residual is not None else 0
        per_row = key_bytes + payload_bytes + residual_bytes
        build_name = f"join-build-{next(self._names)}"
        try:
            self.device.memory.allocate(
                build_name, len(right_keys) * per_row
            )
        except MemoryExceeded:
            self.device.memory.allocate(
                build_name, len(left_keys) * per_row
            )
        self._allocations.append(build_name)
        self.device.meters.sorter_bytes += (
            len(left_keys) + len(right_keys)
        ) * (key_bytes + payload_bytes)

        residual = None if plan.residual is None else partial(
            self._residual_mask, left, right, plan.residual
        )
        if plan.kind is JoinKind.INNER:
            li, ri, _ = join_pairs(left_keys, right_keys, residual)
            out = self._pair(left, right, li, ri)
            # Matched RowID pairs persist for the query's lifetime
            # (the backward pointers of Sec. VI-D).
            pairs_name = f"join-pairs-{next(self._names)}"
            self.device.memory.allocate(pairs_name, len(li) * 16)
            self._allocations.append(pairs_name)
        else:
            keep, _ = join_keep(
                plan.kind, left_keys, right_keys, residual
            )
            out = left.masked(keep)

        self.device.memory.free(build_name)
        self._allocations.remove(build_name)
        return out

    def _residual_mask(
        self, left: _DeviceRel, right: _DeviceRel, predicate: Expr,
        li: np.ndarray, ri: np.ndarray,
    ) -> np.ndarray:
        pair = self._pair(left, right, li, ri)
        for name in sorted(predicate.column_refs()):
            self._consume(pair, name)
        mask_rel = self.device._transform(
            (("@res", predicate),),
            pair.relation.columns,
            pair.relation.nrows,
            subquery_executor=self.scalar_executor,
        )
        return mask_rel.column("@res").values.astype(np.bool_)

    def _pair(
        self, left: _DeviceRel, right: _DeviceRel, li, ri
    ) -> _DeviceRel:
        rowid_map = {t: ids[li] for t, ids in left.rowid_map.items()}
        rowid_map.update(
            {t: ids[ri] for t, ids in right.rowid_map.items()}
        )
        origin = dict(left.origin)
        origin.update(right.origin)
        return _DeviceRel(
            relation=pair_relation(left.relation, right.relation, li, ri),
            rowid_map=rowid_map,
            origin=origin,
            charged=left.charged | right.charged,
        )

    def _try_join_index(
        self, plan: Join, left: _DeviceRel, right: _DeviceRel
    ) -> _DeviceRel | None:
        """MonetDB join-index shortcut (Sec. VI-D).

        When the probe key is a foreign key whose referenced table is
        scanned unfiltered, the materialised ``@rowid`` column on flash
        already *is* the join: no DRAM, no sorter — just a gather of
        the referenced columns.
        """
        if plan.kind is not JoinKind.INNER or plan.residual is not None:
            return None
        key_origin = left.origin.get(plan.left_key)
        if key_origin is None:
            return None
        fk_table, fk_column = key_origin
        fk = self.catalog.foreign_key_for(fk_table, fk_column)
        if fk is None:
            return None
        # The right side must be the referenced table, bare and whole.
        right_tables = list(right.rowid_map)
        if right_tables != [fk.ref_table]:
            return None
        ref_nrows = self.catalog.table(fk.ref_table).nrows
        if len(right.rowid_map[fk.ref_table]) != ref_nrows:
            return None
        if right.origin.get(plan.right_key) != (fk.ref_table,
                                                fk.ref_column):
            return None
        if not np.array_equal(
            right.rowid_map[fk.ref_table],
            np.arange(ref_nrows, dtype=np.int64),
        ):
            return None
        # Every right column must be a flash-resident base column of
        # the referenced table (renames are fine, computed columns
        # would need re-materialisation and forfeit the shortcut).
        for name in right.relation.names:
            origin = right.origin.get(name)
            if origin is None or origin[0] != fk.ref_table:
                return None

        index_column = join_index_name(fk_column)
        self._charge(left, fk_table, index_column)
        left_rowids = left.rowid_map[fk_table]
        base = self.catalog.table(fk_table)
        right_rowids = base.column(index_column).values[left_rowids]

        columns = dict(left.relation.columns)
        origin = dict(left.origin)
        ref = self.catalog.table(fk.ref_table)
        for name in right.relation.names:
            if name in columns:
                raise ValueError(f"join column collision on {name!r}")
            _, base_name = right.origin[name]
            src = typed_array_from_column(ref.column(base_name))
            columns[name] = TypedArray(
                src.values[right_rowids], src.kind, src.scale, src.heap
            )
            origin[name] = (fk.ref_table, base_name)

        rowid_map = dict(left.rowid_map)
        rowid_map[fk.ref_table] = right_rowids.astype(np.int64)
        out = _DeviceRel(
            relation=Relation(columns),
            rowid_map=rowid_map,
            origin=origin,
            charged=left.charged | right.charged,
            # The probe side's rows are unchanged, so is what they touch.
            pages={
                key: flags for key, flags in left.pages.items()
                if key[0] != fk.ref_table
            },
        )
        # The gathered columns stream now, under the gather's row ids —
        # which repeat, so their count says nothing about coverage.
        for name in right.relation.names:
            self._consume(out, name, whole_if_all_rows=False)
        return out

    # -- reductions -----------------------------------------------------------------

    def _exec_aggregate(self, plan: Aggregate) -> _DeviceRel:
        dev = self._exec(plan.child)
        nrows = dev.relation.nrows
        self.rows_processed += nrows

        needed = set(plan.keys)
        for spec in plan.aggregates:
            if spec.expr is not None:
                needed |= spec.expr.column_refs()
        for name in sorted(needed):
            self._consume(dev, name)

        # The hash-table model: spills counted against 1024 buckets.
        with self.tracer.span(
            "device.swissknife", lane="device.swissknife",
            op="aggregate_groupby", rows_in=nrows,
        ):
            key_arrays = [dev.relation.column(k) for k in plan.keys]
            if key_arrays and nrows:
                widths = [
                    4 if a.kind is Kind.STR else 8 for a in key_arrays
                ]
                zipped, id_bytes = zip_group_columns(
                    [a.values for a in key_arrays], widths
                )
                stats = self.device.groupby_accel.run(
                    zipped,
                    {"@count": np.ones(nrows, dtype=np.int64)},
                    {"@count": "cnt"},
                    group_id_bytes=id_bytes,
                )
                self.device.meters.spilled_groups += stats.n_spilled_groups
                self.spilled_rows += len(stats.spilled_rows)

            out, _ = aggregate_relation(dev.relation, plan,
                                        self.scalar_executor)
        return _DeviceRel(
            relation=out, rowid_map={}, origin={}, charged=dev.charged
        )

    def _exec_distinct(self, plan: Distinct) -> _DeviceRel:
        dev = self._exec(plan.child)
        nrows = dev.relation.nrows
        self.rows_processed += nrows
        for name in dev.relation.names:
            self._consume(dev, name)
        return _DeviceRel(
            relation=distinct_relation(dev.relation), rowid_map={},
            origin={}, charged=dev.charged,
        )


class HybridEngine(Engine):
    """The host engine with device offload at compiled boundaries."""

    def __init__(
        self,
        catalog,
        device: AquomanDevice,
        decisions: dict[int, OffloadDecision],
        offload_roots: set[int],
        trace: QueryTrace,
        tracer: Tracer | NullTracer | None = None,
    ):
        super().__init__(catalog, trace, tracer=tracer)
        self.device = device
        self.decisions = decisions
        self.offload_roots = offload_roots
        self.device_rows = 0
        self.runtime_suspensions: set[SuspendReason] = set()
        # Deterministic device-fault addressing: the host plan walk is
        # single-threaded, so offload attempts have a stable order and
        # "subtree<n>" names the same subtree on every run.
        self._fault_sites = itertools.count()

    def _run(self, plan: Plan) -> Relation:
        decision = self.decisions.get(id(plan))
        worth_offloading = _subtree_reduces(plan) or (
            decision is not None and decision.stream_for_assist
        )
        if id(plan) in self.offload_roots and worth_offloading:
            meters_snapshot = replace(self.device.meters)
            executor = DeviceExecutor(self.device, self.scalar)
            subtree = self.tracer.span(
                "device.subtree", lane="device",
                root=type(plan).__name__.lower(),
                node=getattr(plan, "node_id", None),
            )
            injector = get_fault_injector()
            fault_site = f"subtree{next(self._fault_sites)}"
            try:
                with subtree:
                    if injector.enabled:
                        injector.check_device(fault_site)
                    relation = executor.run(plan)
                self.device_rows += executor.rows_processed
                if executor.spilled_rows:
                    # Spilled group-by buckets accumulate on the host
                    # at the Sec. VI-E lookup rate.
                    self.trace.record_op(
                        OpTrace(
                            "aggregate",
                            rows_in=executor.spilled_rows,
                            rows_out=0,
                            bytes_in=executor.spilled_rows * 16,
                            bytes_out=0,
                            detail="device spill accumulate",
                            groups=0,
                            assisted=True,
                        )
                    )
                return relation
            except MemoryExceeded:
                # Condition 4: hand the whole subtree back to the host
                # at baseline speed (the paper's conservative
                # assumption); roll the device meters back.
                self.device.meters.__dict__.update(
                    meters_snapshot.__dict__
                )
                self.runtime_suspensions.add(SuspendReason.DRAM_EXCEEDED)
                self._record_suspend(SuspendReason.DRAM_EXCEEDED)
            except HeapTooLarge:
                self.device.meters.__dict__.update(
                    meters_snapshot.__dict__
                )
                self.runtime_suspensions.add(SuspendReason.STRING_HEAP)
                self._record_suspend(SuspendReason.STRING_HEAP)
            except DeviceFault as fault:
                # Injected mid-task device death: same conservative
                # recovery as the planned suspensions — roll the meters
                # back and re-run the whole subtree on the host, which
                # is ground truth and therefore bit-identical.
                self.device.meters.__dict__.update(
                    meters_snapshot.__dict__
                )
                self.runtime_suspensions.add(SuspendReason.DEVICE_FAULT)
                self._record_suspend(SuspendReason.DEVICE_FAULT)
                injector.record_fallback(
                    fault.site, SuspendReason.DEVICE_FAULT.value
                )
                with self.tracer.span(
                    "fault.fallback", lane="host", site=fault.site,
                    root=type(plan).__name__.lower(),
                ):
                    return super()._run(plan)
        return super()._run(plan)

    def _record_suspend(self, reason: SuspendReason) -> None:
        """Mark a runtime suspension + rollback in spans and metrics."""
        self.tracer.instant(
            "device.suspend", lane="device", reason=reason.value
        )
        METRICS.counter(
            "device.suspensions", "subtrees rolled back to the host"
        ).inc()

    def _run_aggregate(self, plan: Aggregate) -> Relation:
        out = super()._run_aggregate(plan)
        decision = self.decisions.get(id(plan))
        if (
            decision is not None
            and decision.device_assisted
            and id(plan.child) in self.offload_roots
        ):
            # The device streamed and pre-hashed this aggregate's
            # input; the host only accumulates (Sec. VI-E spill mode).
            op = self.trace.ops[-1]
            op.assisted = True
            op.detail += ",assisted"
            self.trace.groupby_spill_groups += max(
                0, op.groups - HASH_BUCKETS
            )
        return out


class AquomanSimulator:
    """Compile + execute + trace one query on an AQUOMAN system."""

    def __init__(
        self,
        catalog,
        config: DeviceConfig | None = None,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.catalog = catalog
        self.config = config or DeviceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.compiler = QueryCompiler(
            catalog, scale_ratio=self.config.scale_ratio
        )
        # One layout for every query's device, not one per run.
        self.layout = FlashLayout(catalog)

    def run(self, plan: Plan, query: str = "") -> SimulationResult:
        # Own the query scope before compiling so the compile span and
        # everything the inner HybridEngine records (a passive scope)
        # carry this run's query id.
        with query_scope(
            plan, query=query, backend="device", tracer=self.tracer
        ) as scope:
            return self._run_scoped(plan, query, scope)

    def _run_scoped(self, plan: Plan, query: str,
                    scope) -> SimulationResult:
        with self.tracer.span("device.compile", query=query):
            compiled = self.compiler.compile(plan)

        decisions: dict[int, OffloadDecision] = {}
        offload_roots: set[int] = set()
        for unit in compiled.flatten():
            decisions.update(unit.decisions)
            offload_roots.update(id(r) for r in unit.offload_roots())

        device = AquomanDevice(
            self.catalog, self.config, tracer=self.tracer,
            layout=self.layout,
        )
        trace = QueryTrace(
            query=query,
            scale_factor=getattr(self.catalog, "scale_factor", 1.0),
        )
        engine = HybridEngine(
            self.catalog, device, decisions, offload_roots, trace,
            tracer=self.tracer,
        )
        relation = engine.execute_relation(plan)

        meters = device.meters
        trace.aquoman_flash_bytes = meters.flash_bytes
        trace.aquoman_sorter_bytes = meters.sorter_bytes
        trace.aquoman_output_bytes = meters.output_bytes
        ratio = max(self.config.scale_ratio, 1e-12)
        trace.aquoman_dram_peak_bytes = int(
            device.memory.peak_effective / ratio
        )
        trace.aquoman_fault_stall_s = meters.fault_stall_s
        trace.groupby_spill_groups += meters.spilled_groups
        if meters.spilled_groups:
            METRICS.counter(
                "device.spilled_groups",
                "group-by buckets spilled to the host",
            ).inc(meters.spilled_groups)

        host_rows = sum(op.rows_in for op in trace.ops)
        total_rows = host_rows + engine.device_rows
        trace.offload_fraction_rows = (
            engine.device_rows / total_rows if total_rows else 0.0
        )
        reasons = compiled.suspend_reasons() | engine.runtime_suspensions
        reasons &= REAL_SUSPENSIONS  # host finalisation is not a suspension
        if trace.groupby_spill_groups:
            reasons.add(SuspendReason.GROUP_SPILL)
        trace.suspended = bool(reasons)
        trace.suspend_reason = ", ".join(sorted(r.value for r in reasons))

        # Suspend verdicts vs. actuals: what the compiler predicted at
        # plan time against what the run actually hit; a mismatch in
        # either direction marks the query for tail-sampled retention.
        predicted = compiled.suspend_reasons() & REAL_SUSPENSIONS
        scope.annotate(
            suspend={
                "predicted": sorted(r.value for r in predicted),
                "observed": sorted(r.value for r in reasons),
                "mispredicted": predicted != reasons,
            },
            flash_bytes=meters.flash_bytes,
            output_bytes=meters.output_bytes,
            offload_fraction_rows=trace.offload_fraction_rows,
            suspended=trace.suspended,
        )

        return SimulationResult(
            table=relation.to_table(query or "result"),
            relation=relation,
            trace=trace,
            compiled=compiled,
            suspend_reasons=reasons,
            device=device,
        )
