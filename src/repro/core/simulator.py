"""The AQUOMAN simulator: hybrid device + host query execution.

This is the repo's analogue of the paper's trace-based simulator
integrated into MonetDB (Sec. VII): it executes the *real* plan — the
functional results are bit-identical to the software baseline — while
routing maximal offloadable subtrees through the device model and
recording a combined :class:`~repro.perf.trace.QueryTrace`:

- device subtrees are scheduled as Table Tasks — every unary chain
  streams from flash through the Row Selector / PE array / Swissknife
  in ``AquomanDevice.run_table_task``, with page-skip traffic
  accounting and group-by spill stats; joins between chains are glue
  here (sorter traffic, DRAM residency);
- the non-offloaded remainder runs on the host engine, whose operator
  records feed the host cost model;
- runtime suspensions (DRAM overflow, condition 4) roll the subtree
  back to the host, the paper's conservative assumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.compiler import (
    CompiledQuery,
    OffloadDecision,
    QueryCompiler,
    COMPILE_TIME_SUSPENSIONS,
    REAL_SUSPENSIONS,
    SuspendReason,
    unary_chain,
)
from repro.core.device import (
    AquomanDevice,
    DeviceConfig,
    DeviceStream,
    RowIds,
    base_table,
    free_key,
)
from repro.core.memory import MemoryExceeded
from repro.core.tabletask import TableTask
from repro.faults.errors import DeviceFault
from repro.faults.injector import get_fault_injector
from repro.core.regex_accel import HeapTooLarge
from repro.core.swissknife.groupby import HASH_BUCKETS
from repro.engine.executor import Engine
from repro.engine.operators.relational import (
    join_keep,
    join_pairs,
)
from repro.engine.relation import (
    Relation,
    key_values,
    select_rows,
    typed_array_from_column,
)
from repro.obs import METRICS, NULL_TRACER, NullTracer, Tracer
from repro.obs.qlog import query_scope
from repro.perf.trace import OpTrace, QueryTrace
from repro.sqlir.expr import Expr
from repro.sqlir.plan import Aggregate, Join, JoinKind, Plan, Scan
from repro.storage.catalog import join_index_name
from repro.storage.layout import FlashLayout
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
    # The Table Tasks the scheduler emitted and ran, in order; those of
    # subtrees rolled back to the host are not among them.
    tasks: list[TableTask] = field(default_factory=list)

    @property
    def offloaded(self) -> bool:
        return self.trace.aquoman_flash_bytes > 0


class DeviceExecutor:
    """Schedules one offloadable subtree onto the device.

    Every chain of unary nodes — over a scan or over a join's pairs —
    is folded into Table Tasks by the compiler and run by
    ``AquomanDevice.run_table_task``; what stays here is the plan walk
    and the join glue around the shared join kernel (sorter traffic,
    DRAM residency, the join-index shortcut), which the device has no
    Table Task for yet.
    """

    def __init__(
        self, device: AquomanDevice, scalar_executor,
        fault_site: str | None = None,
    ):
        self.device = device
        self.catalog = device.catalog
        self.tracer = device.tracer
        self.scalar_executor = scalar_executor
        self.compiler = QueryCompiler(
            self.catalog, scale_ratio=device.config.scale_ratio
        )
        self.tasks: list[TableTask] = []  # emitted and run, in order
        self._allocations: list[str] = []
        # Where an injected device fault strikes: once the subtree's
        # first Table Task has run, so its rollback undoes device work.
        self._fault_site = fault_site

    # -- entry ----------------------------------------------------------------

    def run(self, plan: Plan) -> Relation:
        try:
            out = self._exec(plan)
            with self.tracer.span("device.output_dma", lane="device"):
                self._finalize_output(out)
            return out.relation
        finally:
            for name in self._allocations:
                if self.device.memory.holds(name):
                    self.device.memory.free(name)
            self._allocations.clear()

    def _finalize_output(self, out: DeviceStream) -> None:
        """Charge pass-through columns and meter the DMA back to host."""
        self.device.charge(out, out.relation.names)
        self.device.meters.output_bytes += out.relation.nbytes()

    def _allocate(self, prefix: str, nbytes: int) -> str:
        name = f"{prefix}-{next(self.device.allocation_ids)}"
        self.device.memory.allocate(name, nbytes)
        self._allocations.append(name)
        return name

    # -- plan walk ---------------------------------------------------------------

    def _exec(self, plan: Plan) -> DeviceStream:
        chain, source = unary_chain(plan)
        if isinstance(source, Join):
            stream = self._exec_join(source)
        elif isinstance(source, Scan):
            stream = None  # the first task opens it
        else:
            raise NotImplementedError(
                f"device cannot execute {type(source).__name__}"
            )
        while chain or stream is None:
            task, chain = self.compiler.emit_table_task(
                chain,
                source if stream is None else stream.relation.columns,
                self.device.config.n_predicate_evaluators,
            )
            self.tasks.append(task)
            stream = self.device.run_table_task(
                task, stream, self.scalar_executor
            )
            if self._fault_site is not None and len(self.tasks) == 1:
                get_fault_injector().check_device(self._fault_site)
        return stream

    # -- joins ---------------------------------------------------------------------

    def _exec_join(self, plan: Join) -> DeviceStream:
        if plan.kind is JoinKind.LEFT_OUTER:
            # Never offloaded by the compiler; no NULL padding here.
            raise NotImplementedError(
                f"device cannot execute {plan.kind.name} Join"
            )
        return self.device.node_span(
            "join", getattr(plan, "node_id", None), self._join, plan
        )

    def _join(self, plan: Join) -> DeviceStream:
        left = self._exec(plan.left)
        right = self._exec(plan.right)
        self.device.meters.rows_streamed += (
            left.relation.nrows + right.relation.nrows
        )

        shortcut = self._try_join_index(plan, left, right)
        if shortcut is not None:
            return shortcut

        self.device.charge(left, (plan.left_key,))
        self.device.charge(right, (plan.right_key,))
        left_keys = key_values(left.relation.column(plan.left_key))
        right_keys = key_values(right.relation.column(plan.right_key))

        # Sort-merge: one side's sorted keys (plus RowIDs for inner
        # joins, plus residual columns) live in device DRAM, the other
        # re-streams against it (Sec. VI-C/VI-D).  The natural Table
        # Task order stores the build (right) side; when that overflows
        # DRAM the compiler swaps probe and build before giving up.
        key_bytes = 8
        payload_bytes = 8 if plan.kind is JoinKind.INNER else 0
        residual_bytes = 8 if plan.residual is not None else 0
        per_row = key_bytes + payload_bytes + residual_bytes
        try:
            build_name = self._allocate(
                "join-build", len(right_keys) * per_row
            )
        except MemoryExceeded:
            build_name = self._allocate(
                "join-build", len(left_keys) * per_row
            )
        self.device.meters.sorter_bytes += (
            len(left_keys) + len(right_keys)
        ) * (key_bytes + payload_bytes)

        residual = None if plan.residual is None else partial(
            self._residual_mask, left, right, plan.residual
        )
        if plan.kind is JoinKind.INNER:
            li, ri, _ = join_pairs(left_keys, right_keys, residual)
            out = left.paired(right, li, ri)
            # Matched RowID pairs persist for the query's lifetime
            # (the backward pointers of Sec. VI-D).
            self._allocate("join-pairs", len(li) * 16)
        else:
            keep, _ = join_keep(
                plan.kind, left_keys, right_keys, residual
            )
            out = left.masked(keep)

        self.device.memory.free(build_name)
        self._allocations.remove(build_name)
        return out

    def _residual_mask(
        self, left: DeviceStream, right: DeviceStream, predicate: Expr,
        li: np.ndarray, ri: np.ndarray,
    ) -> np.ndarray:
        return self.device.row_mask(
            left.paired(right, li, ri), predicate, self.scalar_executor,
        )

    def _try_join_index(
        self, plan: Join, left: DeviceStream, right: DeviceStream
    ) -> DeviceStream | None:
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
        fk_key, fk_column = key_origin
        fk_table = base_table(fk_key)
        fk = self.catalog.foreign_key_for(fk_table, fk_column)
        if fk is None:
            return None
        # The right side must be the referenced table, bare and whole:
        # every row in order is the identity map, nothing else.
        if list(right.rowid_map) != [fk.ref_table]:
            return None
        if not right.rowid_map[fk.ref_table].is_identity:
            return None
        if right.origin.get(plan.right_key) != (fk.ref_table,
                                                fk.ref_column):
            return None
        # Every right column must be a flash-resident base column of
        # the referenced table (renames are fine, computed columns
        # would need re-materialisation and forfeit the shortcut).
        for name in right.relation.names:
            origin = right.origin.get(name)
            if origin is None or origin[0] != fk.ref_table:
                return None

        index_column = join_index_name(fk_column)
        self.device.charge_base(left, fk_key, index_column)
        base = self.catalog.table(fk_table)
        right_rowids = left.rowid_map[fk_key].at(
            base.column(index_column).values
        )

        columns = dict(left.relation.columns)
        origin = dict(left.origin)
        ref = self.catalog.table(fk.ref_table)
        # The gathered rows' key: the referenced table's, unless the
        # probe side reads that table too.
        key = free_key(fk.ref_table, left.rowid_map)
        for name in right.relation.names:
            if name in columns:
                raise ValueError(f"join column collision on {name!r}")
            _, base_name = right.origin[name]
            columns[name] = select_rows(
                typed_array_from_column(ref.column(base_name)),
                right_rowids,
            )
            origin[name] = (key, base_name)

        rowid_map = dict(left.rowid_map)
        rowid_map[key] = RowIds(
            len(right_rowids), right_rowids, ordered=False
        )
        out = DeviceStream(
            relation=Relation(columns),
            rowid_map=rowid_map,
            origin=origin,
            charged=left.charged | {
                (key, column) for _, column in right.charged
            },
            # The probe side's rows are unchanged, so is what they touch.
            pages=dict(left.pages),
        )
        # The gathered columns stream now, under the gather's row ids —
        # which repeat, so their count says nothing about coverage.
        self.device.charge(out, right.relation.names, whole_if_all_rows=False)
        return out


class HybridEngine(Engine):
    """The host engine with device offload at compiled boundaries."""

    def __init__(
        self,
        catalog,
        device: AquomanDevice,
        decisions: dict[Plan, OffloadDecision],
        device_roots: set[Plan],
        trace: QueryTrace,
        tracer: Tracer | NullTracer | None = None,
    ):
        super().__init__(catalog, trace, tracer=tracer)
        self.device = device
        self.decisions = decisions
        # The compiler's ``device_roots``: the subtrees to offload.
        self.device_roots = device_roots
        self.tasks: list[TableTask] = []  # of subtrees not rolled back
        self.runtime_suspensions: set[SuspendReason] = set()
        # Deterministic device-fault addressing: the host plan walk is
        # single-threaded, so offload attempts have a stable order and
        # "<query>/subtree<n>" names the same subtree on every run, and
        # a different one in each statement.
        self._fault_sites = itertools.count()

    def _run(self, plan: Plan) -> Relation:
        if plan in self.device_roots:
            checkpoint = self.device.checkpoint()
            spilled_before = self.device.meters.spilled_rows
            injector = get_fault_injector()
            fault_site = (
                f"{self.trace.query}/subtree{next(self._fault_sites)}"
            )
            executor = DeviceExecutor(
                self.device, self.scalar,
                fault_site if injector.enabled else None,
            )
            subtree = self.tracer.span(
                "device.subtree", lane="device",
                root=type(plan).__name__.lower(),
                node=getattr(plan, "node_id", None),
            )
            try:
                with subtree:
                    relation = executor.run(plan)
                self.tasks.extend(executor.tasks)
                spilled_rows = (
                    self.device.meters.spilled_rows - spilled_before
                )
                if spilled_rows:
                    # Spilled group-by buckets accumulate on the host
                    # at the Sec. VI-E lookup rate.
                    self.trace.record_op(
                        OpTrace(
                            "aggregate",
                            rows_in=spilled_rows,
                            rows_out=0,
                            bytes_in=spilled_rows * 16,
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
                # assumption).
                self._suspend(SuspendReason.DRAM_EXCEEDED, checkpoint)
            except HeapTooLarge:
                self._suspend(SuspendReason.STRING_HEAP, checkpoint)
            except DeviceFault as fault:
                # Injected device death after the subtree's first
                # Table Task: same conservative recovery as the planned
                # suspensions — roll back what the device did, re-run
                # the whole subtree on the host, which is ground truth
                # and therefore bit-identical.
                self._suspend(SuspendReason.DEVICE_FAULT, checkpoint)
                injector.record_fallback(
                    fault.site, SuspendReason.DEVICE_FAULT.value
                )
                with self.tracer.span(
                    "fault.fallback", lane="host", site=fault.site,
                    root=type(plan).__name__.lower(),
                ):
                    return super()._run(plan)
        return super()._run(plan)

    def _suspend(self, reason: SuspendReason, checkpoint: tuple) -> None:
        """Roll the device's activity back to before the subtree and
        mark the suspension in spans and metrics."""
        self.device.rollback(checkpoint)
        self.runtime_suspensions.add(reason)
        self.tracer.instant(
            "device.suspend", lane="device", reason=reason.value
        )
        METRICS.counter("device.suspensions").inc()

    def _record(self, plan: Plan, op: OpTrace) -> None:
        decision = (
            self.decisions.get(plan) if isinstance(plan, Aggregate) else None
        )
        if (
            decision is not None
            and decision.device_assisted
            and plan.child in self.device_roots
        ):
            # The device streamed and pre-hashed this aggregate's
            # input; the host only accumulates (Sec. VI-E spill mode).
            op.assisted = True
            op.detail += ",assisted"
            self.trace.groupby_spill_groups += max(
                0, op.groups - HASH_BUCKETS
            )
        super()._record(plan, op)


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

        decisions: dict[Plan, OffloadDecision] = {}
        device_roots: set[Plan] = set()
        for unit in compiled.flatten():
            decisions.update(unit.decisions)
            device_roots.update(unit.device_roots)

        device = AquomanDevice(
            self.catalog, self.config, tracer=self.tracer,
            layout=self.layout,
        )
        trace = QueryTrace(
            query=query,
            scale_factor=getattr(self.catalog, "scale_factor", 1.0),
        )
        engine = HybridEngine(
            self.catalog, device, decisions, device_roots, trace,
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
            METRICS.counter("device.spilled_groups").inc(meters.spilled_groups)

        total_rows = trace.rows_processed() + meters.rows_streamed
        trace.offload_fraction_rows = (
            meters.rows_streamed / total_rows if total_rows else 0.0
        )
        reasons = compiled.suspend_reasons() | engine.runtime_suspensions
        reasons &= REAL_SUSPENSIONS  # host finalisation is not a suspension
        if trace.groupby_spill_groups:
            reasons.add(SuspendReason.GROUP_SPILL)
        trace.suspended = bool(reasons)
        trace.suspend_reason = ", ".join(sorted(r.value for r in reasons))

        # Suspend verdicts vs. actuals.  ``mispredicted`` scores the
        # compiler, so only over the classes it can decide at plan
        # time: a heap guard tripping at run time is its miss, a group
        # spill or a DRAM overflow (AQ2xx's to bracket; the doctor
        # scores those) is not.
        predicted = compiled.suspend_reasons() & REAL_SUSPENSIONS
        scope.annotate(
            suspend={
                "predicted": sorted(r.value for r in predicted),
                "observed": sorted(r.value for r in reasons),
                "mispredicted": predicted != (
                    reasons & COMPILE_TIME_SUSPENSIONS
                ),
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
            tasks=engine.tasks,
        )
