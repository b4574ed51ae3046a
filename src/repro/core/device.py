"""The AQUOMAN device: flash + the three accelerators + DRAM.

Executes :class:`~repro.core.tabletask.TableTask` s the way the
hardware does (Sec. VI): the Table Reader opens a stream over the
flash pages holding selected row vectors, the Row Selector builds the
row mask from its predicate program, the PE array applies the
transform graph, and the configured Swissknife operator reduces the
stream — into device DRAM, back to the host, or on to the next task.
:meth:`AquomanDevice.run_table_task` is the only place those stages
are sequenced: hand-written task chains (``examples/``, the tests) and
the simulator's scheduler (:mod:`repro.core.simulator`), which folds
every unary plan chain into tasks, both go through it.

Flash traffic, sorter traffic, DRAM residency and group-by spills are
all metered; the simulator turns those meters into run times.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataflow import BitColumn, StageLowering, lower_stage
from repro.core.memory import DeviceMemory
from repro.core.regex_accel import RegexAccelerator, effective_heap_bytes
from repro.core.row_selector import RowSelector
from repro.core.swissknife.groupby import AggregateGroupBy, zip_group_columns
from repro.core.swissknife.merger import Merger
from repro.core.swissknife.sorter import StreamingSorter
from repro.core.swissknife.topk import TopKAccelerator
from repro.core.tabletask import SwissknifeOp, TableTask, TaskOutput
from repro.engine.operators.relational import (
    aggregate_relation,
    distinct_relation,
)
from repro.engine.relation import (
    Relation,
    key_values,
    select_rows,
    typed_array_from_column,
)
from repro.faults.injector import get_fault_injector
from repro.flash.nand import FlashConfig
from repro.obs import METRICS, NULL_TRACER, NullTracer, Tracer
from repro.sqlir.expr import (
    ColumnRef,
    EvalContext,
    Expr,
    Kind,
    TypedArray,
    evaluate,
)
from repro.sqlir.plan import Aggregate, Scan
from repro.storage.catalog import Catalog
from repro.storage.layout import (
    PAGE_BYTES,
    ColumnExtent,
    FlashLayout,
    selection_pages,
)
from repro.util.bitvector import BitVector
from repro.util.units import GB

ROWID = "@rowid"

_PAGES_READ = METRICS.counter("device.flash_pages_read")
_PAGES_SKIPPED = METRICS.counter("device.flash_pages_skipped")


@dataclass(frozen=True)
class DeviceConfig:
    """Hardware parameters of one AQUOMAN SSD."""

    dram_bytes: int = 40 * GB
    n_pes: int = 4
    n_predicate_evaluators: int = 4
    pe_imem_size: int | None = None  # None = "as big as needed" (Sec. VII)
    scale_ratio: float = 1.0         # simulated SF / data SF
    flash: FlashConfig = field(default_factory=FlashConfig)


@dataclass
class DeviceMeters:
    """Cumulative device activity for the performance model."""

    flash_bytes: int = 0
    sorter_bytes: int = 0
    output_bytes: int = 0
    rows_streamed: int = 0  # rows into each pipeline stage and join
    rows_selected: int = 0
    rows_transformed: int = 0
    spilled_groups: int = 0
    spilled_rows: int = 0  # group-by rows the host must accumulate
    tasks_run: int = 0
    pe_fallback_exprs: int = 0  # transforms evaluated off the PE path
    fault_stall_s: float = 0.0  # injected stalls on the critical channel


@dataclass(frozen=True)
class RowIds:
    """One base table's row id per stream row, in one of three shapes.

    * *identity* (``ids`` is None): every row of the table in order —
      a freshly opened table, and what a mask keeping every row leaves;
    * *ordered*: ids that never decrease — what a mask leaves, and a
      join's probe side (its pairs come left-row-major);
    * *gathered*: anything else — a join's build side, the join-index
      gather.

    The shape answers the page-skip question: identity touches every
    page, ordered ids binary-search the page bounds, and only gathered
    ids scatter per row.
    """

    nrows: int
    ids: np.ndarray | None = None
    ordered: bool = True

    @property
    def is_identity(self) -> bool:
        return self.ids is None

    def array(self) -> np.ndarray:
        """The row ids, spelled out."""
        if self.ids is None:
            return np.arange(self.nrows, dtype=np.int64)
        return self.ids

    def take(self, indices: np.ndarray, ordered: bool) -> "RowIds":
        """The row ids of stream rows ``indices``; ``ordered`` says the
        indices never decrease."""
        if self.ids is None:
            return RowIds(
                len(indices), indices.astype(np.int64, copy=False), ordered
            )
        return RowIds(len(indices), self.ids[indices],
                      ordered and self.ordered)

    def at(self, values: np.ndarray) -> np.ndarray:
        """A base column's values at these row ids, as a new int64
        array."""
        if self.ids is None:
            return np.array(values, dtype=np.int64)
        return values[self.ids].astype(np.int64, copy=False)

    def touched_pages(self, extent: ColumnExtent) -> np.ndarray:
        """One flag per page of ``extent``: does a row id land on it?"""
        per_page = extent.rows_per_page()
        if self.ids is None:
            return np.ones(-(-extent.nrows // per_page), dtype=np.bool_)
        if self.ordered:
            return selection_pages(self.ids, 0, extent.nrows, per_page)
        return extent.touched_pages(self.ids)


def base_table(key: str) -> str:
    """The base table behind a row-id key (see :class:`DeviceStream`)."""
    return key.partition("#")[0]


def free_key(table: str, *taken) -> str:
    """A row-id key for another read of ``table``, in none of ``taken``."""
    key, n = table, 1
    while any(key in keys for keys in taken):
        key, n = f"{table}#{n}", n + 1
    return key


@dataclass
class DeviceStream:
    """What flows between pipeline stages, tasks and the join glue.

    Row ids are kept per *key*: a base table's name, or ``table#n``
    when a join meets that table on both sides (Q07/Q08's two nations,
    Q21's lineitems) — each side's columns stay under its own rows.
    """

    relation: Relation
    # key -> RowID per current row (for join indices & page skip)
    rowid_map: dict[str, RowIds]
    # relation column -> (key, base column) for pass-throughs
    origin: dict[str, tuple[str, str]]
    # (key, base column)s already read off flash in this lineage
    charged: set[tuple[str, str]]
    # (key, rows per page) -> page flags under ``rowid_map``: the
    # columns of one table share a selection, so its page-skip answer
    # is worked out once per value width.  Valid only for this
    # ``rowid_map`` — whatever re-selects rows starts empty.
    pages: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)

    def touched_pages(
        self, extent: ColumnExtent, key: str | None = None
    ) -> np.ndarray:
        """Pages of ``extent`` the selection of ``key`` (by default the
        extent's table) lands on, memoised."""
        key = extent.table if key is None else key
        memo = (key, extent.rows_per_page())
        flags = self.pages.get(memo)
        if flags is None:
            flags = self.pages[memo] = self.rowid_map[key].touched_pages(
                extent
            )
        return flags

    def gathered(
        self, indices: np.ndarray, ordered: bool = False
    ) -> "DeviceStream":
        """The rows at ``indices``; ``ordered`` says they never
        decrease."""
        rowid_map = {
            t: ids.take(indices, ordered) for t, ids in self.rowid_map.items()
        }
        return DeviceStream(
            relation=Relation(self._selected(indices, rowid_map)),
            rowid_map=rowid_map,
            origin=dict(self.origin),
            charged=self.charged,
        )

    def _selected(
        self, indices: np.ndarray, rowid_map: dict[str, RowIds]
    ) -> dict[str, TypedArray]:
        """The columns at ``indices``, not gathered.  A base column
        selects its table's rows by the very array of row ids the map
        holds, so each table's ids at ``indices`` — ``rowid_map``, taken
        already — are composed once for both."""
        composed = [
            (ids.ids, rowid_map[t].ids)
            for t, ids in self.rowid_map.items() if ids.ids is not None
        ]
        return {
            name: select_rows(arr, indices, composed)
            for name, arr in self.relation.columns.items()
        }

    def masked(self, keep: np.ndarray) -> "DeviceStream":
        """The rows ``keep`` flags.  Keeping every row changes nothing:
        an identity map stays identity (the join-index shortcut asks)."""
        if keep.all():
            return self
        return self.gathered(np.flatnonzero(keep), ordered=True)

    def paired(
        self, right: "DeviceStream", li: np.ndarray, ri: np.ndarray
    ) -> "DeviceStream":
        """Inner-join pairs ``(li, ri)``, left-row-major: the probe
        side's row ids keep their order, the build side's are
        gathered.  A build-side key the probe side has too moves to a
        free ``table#n``."""
        left_ids = {
            t: ids.take(li, ordered=True)
            for t, ids in self.rowid_map.items()
        }
        right_ids = {
            t: ids.take(ri, ordered=False)
            for t, ids in right.rowid_map.items()
        }
        columns = self._selected(li, left_ids)
        for name, arr in right._selected(ri, right_ids).items():
            if name in columns:
                raise ValueError(f"join column collision on {name!r}")
            columns[name] = arr
        rowid_map = dict(left_ids)
        moved: dict[str, str] = {}
        for t, ids in right_ids.items():
            if t in rowid_map:
                moved[t] = free_key(t, rowid_map, right_ids)
            rowid_map[moved.get(t, t)] = ids
        return DeviceStream(
            relation=Relation(columns),
            rowid_map=rowid_map,
            origin={**self.origin, **{
                name: (moved.get(key, key), column)
                for name, (key, column) in right.origin.items()
            }},
            charged=self.charged | {
                (moved.get(key, key), column)
                for key, column in right.charged
            },
        )


class AquomanDevice:
    """One AQUOMAN-augmented SSD holding a catalog's column files."""

    def __init__(
        self,
        catalog: Catalog,
        config: DeviceConfig | None = None,
        tracer: Tracer | NullTracer | None = None,
        layout: FlashLayout | None = None,
    ):
        self.catalog = catalog
        self.config = config or DeviceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Callers running many queries on one catalog pass the layout
        # in; walking every column file per device is measurable.
        self.layout = layout if layout is not None else FlashLayout(catalog)
        self.memory = DeviceMemory(
            capacity_bytes=self.config.dram_bytes,
            scale_ratio=self.config.scale_ratio,
        )
        self.row_selector = RowSelector(self.config.n_predicate_evaluators)
        self.regex_accel = RegexAccelerator()
        self.groupby_accel = AggregateGroupBy()
        self.merger = Merger()
        self.meters = DeviceMeters()
        # Numbers the scheduler's DRAM allocations on this device.
        self.allocation_ids = itertools.count()
        self._mem_tables: dict[str, Relation] = {}

    # -- activity roll-back ------------------------------------------------------

    def checkpoint(self) -> tuple:
        """The activity counters the timing models read, to roll back to
        when a subtree is handed back to the host."""
        selector = self.row_selector
        return (
            dict(self.meters.__dict__),
            selector.rows_scanned,
            selector.masks_produced,
        )

    def rollback(self, checkpoint: tuple) -> None:
        meters, rows_scanned, masks_produced = checkpoint
        self.meters.__dict__.update(meters)
        self.row_selector.rows_scanned = rows_scanned
        self.row_selector.masks_produced = masks_produced

    # -- flash traffic ---------------------------------------------------------

    def charge(
        self, stream: DeviceStream, columns: Iterable[str],
        whole_if_all_rows: bool = True,
    ) -> None:
        """Meter the flash reads feeding a stage's stream ``columns``, in
        order: each base column once per lineage, page-skipped under the
        stream's current selection.  The columns of one base table
        share its page flags, one answer per value width
        (:meth:`DeviceStream.touched_pages`)."""
        origin, charged = stream.origin, stream.charged
        for name in columns:
            key = origin.get(name)
            if key is not None and key not in charged:
                self.charge_base(stream, *key, whole_if_all_rows)
                charged.add(key)

    def charge_base(
        self, stream: DeviceStream, table: str, column: str,
        whole_if_all_rows: bool = True,
    ) -> None:
        """Charge the pages of a base column that ``stream``'s rows touch
        (``table`` may be a row-id key).

        The Table Reader skips a flash page when every row vector on it
        is masked out (Sec. VI-B).  A selection as long as the table
        streams the whole column file without looking at the row ids;
        the join-index gather opts out because its row ids repeat.
        """
        extent = self.layout.extent(base_table(table), column)
        rowids = stream.rowid_map.get(table)
        if rowids is None or (
            whole_if_all_rows and rowids.nrows == extent.nrows
        ):
            self.charge_pages(extent)
        else:
            self.charge_pages(extent, stream.touched_pages(extent, table))

    def charge_pages(
        self, extent: ColumnExtent, flags: np.ndarray | None = None
    ) -> int:
        """Meter reading the flagged pages of one column extent.

        ``flags`` holds one flag per extent-local page; ``None`` reads
        the whole extent.
        """
        touched = (
            extent.n_pages if flags is None
            else int(np.count_nonzero(flags))
        )
        nbytes = touched * PAGE_BYTES
        self.meters.flash_bytes += nbytes
        self._inject_page_faults(extent, flags, touched)
        _PAGES_READ.inc(touched)
        _PAGES_SKIPPED.inc(extent.n_pages - touched)
        return nbytes

    def _inject_page_faults(self, extent, flags, touched) -> None:
        """Consult the fault injector for the pages just charged.

        Channels stream in parallel, so the batch's marginal wall time
        is the worst single channel's stall (retry backoff + spikes);
        an unrecoverable page propagates out of the injector.
        """
        injector = get_fault_injector()
        if not injector.enabled or not touched:
            return
        local = (
            np.arange(extent.n_pages, dtype=np.int64)
            if flags is None
            else np.flatnonzero(flags)
        )
        stall = injector.charge_page_reads(
            extent.first_page + local, self.config.flash.n_channels
        )
        if stall is not None:
            self.meters.fault_stall_s += float(stall.max())

    def effective_heap_bytes(self, heap) -> int:
        """Heap size at the simulated scale (for the 1 MB cache rule)."""
        table_name, base_rows = _heap_base(self.catalog, heap)
        constant = table_name in self.catalog.constant_tables
        return effective_heap_bytes(
            heap, base_rows, self.config.scale_ratio, constant=constant
        )

    # -- table task execution -----------------------------------------------------

    def run_table_task(
        self,
        task: TableTask,
        stream: DeviceStream | None = None,
        scalar_executor=None,
    ) -> DeviceStream:
        """Execute one Table Task through the full pipeline.

        ``stream`` is the input of a task that names no ``table``;
        ``scalar_executor`` evaluates scalar subqueries in its
        expressions.
        """
        self.meters.tasks_run += 1
        with self.tracer.span("device.table_task", lane="device",
                              table=task.table):
            if task.table is not None:
                stream = self._stage(task, "scan", self._open_stream, task)
            elif stream is None:
                raise ValueError("a task without a table needs a stream")
            if len(task.row_sel) or task.row_filter is not None:
                stream = self._stage(
                    task, "filter", self._select_rows,
                    task, stream, scalar_executor,
                )
            if task.row_transf is not None:
                stream = self._stage(
                    task, "project", self._transform_rows,
                    task, stream, scalar_executor,
                )
            if task.operator is not SwissknifeOp.NOP:
                stream = self._stage(
                    task,
                    "distinct" if task.operator_args.get("distinct")
                    else "aggregate",
                    self._run_swissknife, task, stream, scalar_executor,
                )

        if task.output is TaskOutput.AQUOMAN_MEM:
            if not task.output_name:
                raise ValueError("AQUOMAN_MEM output needs output_name")
            self.store_intermediate(task.output_name, stream.relation)
        elif task.output is TaskOutput.HOST:
            self.meters.output_bytes += stream.relation.nbytes()
        return stream

    def _stage(self, task: TableTask, kind: str, run, *args) -> DeviceStream:
        """Run one pipeline stage, under its plan node's span if the
        task was emitted from one."""
        if kind not in task.nodes:
            return run(*args)
        return self.node_span(kind, task.nodes[kind], run, *args)

    def node_span(self, kind: str, node, run, *args) -> DeviceStream:
        """Run one plan node's share of the work under ``device.<kind>``.

        ``node`` mirrors the engine spans: the analyzer's plan-node id,
        the doctor's key for joining predictions to actuals.
        """
        if not self.tracer.enabled:
            return run(*args)
        with self.tracer.span(
            "device." + kind, lane="device", node=node
        ) as span:
            out = run(*args)
            span.set(
                rows_out=out.relation.nrows,
                bytes_out=out.relation.nbytes(),
            )
            return out

    def store_intermediate(self, name: str, relation: Relation) -> None:
        if self.memory.holds(name):
            self.memory.free(name)
            self._mem_tables.pop(name, None)
        self.memory.allocate(name, relation.nbytes())
        self._mem_tables[name] = relation

    def load_intermediate(self, name: str) -> Relation:
        try:
            return self._mem_tables[name]
        except KeyError:
            raise KeyError(f"no DRAM intermediate named {name!r}") from None

    def free_intermediate(self, name: str) -> None:
        self.memory.free(name)
        del self._mem_tables[name]

    # -- pipeline stages ---------------------------------------------------------

    def _open_stream(self, task: TableTask) -> DeviceStream:
        """Table Reader: a stream over a base table's column files.

        Nothing is charged yet — a column's pages are read when a
        stage first consumes it, under the selection of that moment.
        """
        base = self.catalog.table(task.table)
        names = task.columns if task.columns is not None else tuple(
            base.column_names
        )
        self.meters.rows_streamed += base.nrows
        stream = DeviceStream(
            relation=Relation({
                n: typed_array_from_column(base.column(n)) for n in names
            }),
            rowid_map={task.table: RowIds(base.nrows)},
            origin={n: (task.table, n) for n in names},
            charged=set(),
        )
        if task.mask_src is not None:
            rowids = self.load_intermediate(task.mask_src).column(ROWID)
            stream = stream.masked(BitVector.from_indices(
                rowids.values.astype(np.int64), base.nrows
            ).bits)
        return stream

    def _select_rows(
        self, task: TableTask, stream: DeviceStream, scalar_executor
    ) -> DeviceStream:
        nrows = stream.relation.nrows
        self.meters.rows_streamed += nrows
        # Row Selector: CP columns stream in full (under the incoming
        # selection) and produce the first-cut row mask.
        with self.tracer.span(
            "device.row_selector", lane="device.row_selector",
            rows_in=nrows,
        ):
            program = task.row_sel
            self.charge(stream, [term.column for term in program.terms])
            mask = self.row_selector.select(
                program,
                {n: stream.relation.column(n).stored()
                 for n in program.columns},
                nrows,
            )
            self.meters.rows_selected += mask.count()
            stream = stream.masked(mask.bits)

        if task.row_filter is not None:
            # Forwarded to the Row Transformer (Sec. VI-A): remaining
            # columns stream under the selector's mask.
            nrows = stream.relation.nrows
            with self.tracer.span(
                "device.transformer", lane="device.transformer",
                rows_in=nrows,
            ):
                self.meters.rows_transformed += nrows
                stream = stream.masked(self.row_mask(
                    stream, task.row_filter, scalar_executor
                ))
        return stream

    def row_mask(
        self, stream: DeviceStream, predicate: Expr, scalar_executor=None
    ) -> np.ndarray:
        """The PE array's verdict of ``predicate`` on each stream row."""
        columns = stream.relation.columns
        lowering = lower_stage(
            (("@mask", predicate),), columns, self.config.pe_imem_size
        )
        self.charge(stream, lowering.refs)
        verdict = self._transform(
            lowering, columns, stream.relation.nrows, scalar_executor
        )
        return verdict["@mask"].values.astype(np.bool_)

    def _transform_rows(
        self, task: TableTask, stream: DeviceStream, scalar_executor
    ) -> DeviceStream:
        nrows = stream.relation.nrows
        self.meters.rows_streamed += nrows
        columns = stream.relation.columns
        lowering = lower_stage(
            task.row_transf, columns, self.config.pe_imem_size
        )
        self.charge(stream, lowering.refs)
        if ROWID in lowering.refs:
            # One base table underneath: its row ids are the stream's.
            (rowids,) = stream.rowid_map.values()
            columns = {
                **columns, ROWID: TypedArray(rowids.array(), Kind.INT, 0)
            }

        with self.tracer.span(
            "device.transformer", lane="device.transformer",
            rows_in=nrows,
        ):
            transformed = Relation(self._transform(
                lowering, columns, nrows, scalar_executor
            ))
        self.meters.rows_transformed += nrows
        return DeviceStream(
            relation=transformed,
            rowid_map=stream.rowid_map,
            origin={
                name: stream.origin[expr.name]
                for name, expr in task.row_transf
                if isinstance(expr, ColumnRef) and expr.name in stream.origin
            },
            charged=stream.charged,
            pages=stream.pages,
        )

    def _transform(
        self,
        lowering: StageLowering,
        columns: dict[str, TypedArray],
        nrows: int,
        subquery_executor=None,
    ) -> dict[str, TypedArray]:
        """Run a lowered stage: PE array where possible, else fallback.

        String predicates are pre-lowered through the regex accelerator
        into one-bit columns (as the Table Reader does); pure renames
        of string/rowid columns pass through; integer arithmetic runs
        on compiled PE programs and is the metered common case.
        """
        if lowering.bits:
            columns = dict(columns)
            for bit in lowering.bits:
                columns[bit.name] = TypedArray(
                    self._match(bit, columns).astype(np.int64), Kind.INT, 0
                )

        computed: dict[str, TypedArray] = {}
        graph = lowering.graph
        if graph is not None:
            results = graph.execute(
                {n: columns[n].values for n in graph.input_order}
            )
            for name, values, scale in zip(
                graph.output_names, results, graph.output_scales
            ):
                computed[name] = TypedArray(values, Kind.INT, scale)
        elif lowering.fallback:
            self.meters.pe_fallback_exprs += len(lowering.fallback)
            ctx = EvalContext(
                columns=columns,
                nrows=nrows,
                subquery_executor=subquery_executor,
            )
            for name, expr in lowering.fallback:
                computed[name] = evaluate(expr, ctx)

        passthrough = lowering.passthrough
        return {
            name: (
                columns[passthrough[name]] if name in passthrough
                else computed[name]
            )
            for name, _ in lowering.outputs
        }

    def _match(
        self, bit: BitColumn, columns: dict[str, TypedArray]
    ) -> np.ndarray:
        """One bit column, matched by the regex accelerator."""
        source = columns[bit.column]
        match = getattr(self.regex_accel, "match_" + bit.match)
        return match(
            source.values,
            source.heap,
            bit.arg,
            bit.negated,
            self.effective_heap_bytes(source.heap),
        )

    # -- swissknife -----------------------------------------------------------------

    def _run_swissknife(
        self, task: TableTask, stream: DeviceStream, scalar_executor
    ) -> DeviceStream:
        op = task.operator
        args = task.operator_args
        rel = stream.relation
        self.meters.rows_streamed += rel.nrows

        reduces = op in (
            SwissknifeOp.AGGREGATE, SwissknifeOp.AGGREGATE_GROUPBY
        )
        if reduces:
            # Its inputs may come straight off flash, not through a
            # transform; the other operators read transformer outputs.
            self.charge(stream, _reduce_inputs(rel, args))
        with self.tracer.span(
            "device.swissknife", lane="device.swissknife",
            op=op.name.lower(), rows_in=rel.nrows,
        ):
            if reduces:
                out = self._swiss_reduce(rel, args, scalar_executor)
            elif op is SwissknifeOp.SORT:
                out = self._swiss_sort(rel, args)
            elif op in (SwissknifeOp.MERGE, SwissknifeOp.SORT_MERGE):
                out = self._swiss_merge(
                    rel, args, sort_first=op is SwissknifeOp.SORT_MERGE
                )
            elif op is SwissknifeOp.TOPK:
                out = self._swiss_topk(rel, args)
            else:
                raise NotImplementedError(op)
        # No row of a Swissknife result maps to a base-table row.
        return DeviceStream(out, {}, {}, stream.charged)

    def _swiss_reduce(
        self, rel: Relation, args: dict, scalar_executor
    ) -> Relation:
        """AGGREGATE / AGGREGATE_GROUPBY, and DISTINCT as the key-only
        group-by it is (its small key sets never meet the hash model)."""
        if args.get("distinct"):
            return distinct_relation(rel)
        # The host's operator takes the plan node; of it, it reads only
        # keys, aggregates and having — the child is a label.
        plan = Aggregate(
            Scan("stream"),
            tuple(args.get("keys", ())),
            tuple(args["aggregates"]),
            args.get("having"),
        )
        out, groups = aggregate_relation(rel, plan, scalar_executor)
        key_arrays = [rel.column(k) for k in plan.keys]
        if key_arrays and rel.nrows:
            # The hash-table model: spills counted against 1024
            # buckets.  Spilled rows are accumulated by the host
            # (Sec. VI-E); the functional result above is exact.  The
            # host numbered the groups in first-appearance order, as
            # the hardware does, so the buckets are claimed group by
            # group: one zipped identifier per group, from its first row.
            widths = [4 if a.kind is Kind.STR else 8 for a in key_arrays]
            zipped, id_bytes = zip_group_columns(
                [key_values(select_rows(a, groups.representative))
                 for a in key_arrays],
                widths,
            )
            spilled_groups, spilled_rows = self.groupby_accel.spills(
                zipped, groups.counts, group_id_bytes=id_bytes
            )
            self.meters.spilled_groups += spilled_groups
            self.meters.spilled_rows += spilled_rows
        return out

    def _swiss_sort(self, stream: Relation, args: dict) -> Relation:
        key = args["key"]
        keys = stream.column(key).values.astype(np.int64)
        payload_name = args.get("payload", ROWID)
        payload = (
            stream.column(payload_name).values.astype(np.int64)
            if payload_name in stream.columns
            else None
        )
        element_bytes = 16 if payload is not None else 8
        sorter = StreamingSorter(element_bytes=element_bytes)
        sorted_keys, sorted_payload = sorter.sort_fully(keys, payload)
        self.meters.sorter_bytes += sorter.stats.bytes_in

        out = {key: TypedArray(sorted_keys, Kind.INT, 0)}
        if sorted_payload is not None:
            out[payload_name] = TypedArray(sorted_payload, Kind.INT, 0)
        return Relation(out)

    def _swiss_merge(
        self, stream: Relation, args: dict, sort_first: bool
    ) -> Relation:
        key = args["key"]
        partner = self.load_intermediate(args["with"])
        partner_key = args.get("partner_key", key)

        keys = stream.column(key).values.astype(np.int64)
        if sort_first:
            sorter = StreamingSorter(element_bytes=8)
            keys, _ = sorter.sort_fully(keys)
            self.meters.sorter_bytes += sorter.stats.bytes_in

        matched = self.merger.intersect(
            keys, np.sort(partner.column(partner_key).values.astype(np.int64))
        )
        return Relation({key: TypedArray(matched, Kind.INT, 0)})

    def _swiss_topk(self, stream: Relation, args: dict) -> Relation:
        key = args["key"]
        accel = TopKAccelerator(k=args["k"])
        top = accel.run(stream.column(key).values.astype(np.int64))
        return Relation({key: TypedArray(top, Kind.INT, 0)})


def _reduce_inputs(rel: Relation, args: dict) -> list[str]:
    """Stream columns an aggregate Swissknife operator consumes."""
    if args.get("distinct"):
        return rel.names
    needed = set(args.get("keys", ()))
    for spec in args["aggregates"]:
        if spec.expr is not None:
            needed |= spec.expr.column_refs()
    return sorted(needed)


def _heap_base(catalog: Catalog, heap) -> tuple[str | None, int]:
    """(table, row count) of the base column owning ``heap``."""
    for table in catalog.tables.values():
        for column in table.columns:
            if column.heap is heap:
                return table.name, table.nrows
    return None, heap.unique_count
