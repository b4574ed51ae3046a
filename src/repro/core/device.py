"""The AQUOMAN device: flash + the three accelerators + DRAM.

Executes literal :class:`~repro.core.tabletask.TableTask` chains the
way the hardware does (Sec. VI): the Row Selector builds row masks
from its predicate program, the Table Reader streams only the flash
pages holding selected row vectors, the PE array applies the transform
graph, and the configured Swissknife operator reduces the stream —
into device DRAM or back to the host.

Flash traffic, sorter traffic, DRAM residency and group-by spills are
all metered; the simulator turns those meters into run times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataflow import (
    UnsupportedTransform,
    build_transform_graph,
)
from repro.core.memory import DeviceMemory
from repro.core.regex_accel import RegexAccelerator
from repro.core.row_selector import RowSelector
from repro.core.swissknife.groupby import AggregateGroupBy, zip_group_columns
from repro.core.swissknife.merger import Merger
from repro.core.swissknife.sorter import StreamingSorter
from repro.core.swissknife.topk import TopKAccelerator
from repro.core.tabletask import SwissknifeOp, TableTask, TaskOutput
from repro.engine.operators.grouping import (
    aggregate_count,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    group_rows,
)
from repro.engine.relation import Relation, typed_array_from_column
from repro.faults.injector import get_fault_injector
from repro.flash.nand import FlashConfig
from repro.obs import METRICS, NULL_TRACER, NullTracer, Tracer
from repro.sqlir.expr import (
    EvalContext,
    Expr,
    InList,
    Kind,
    Like,
    TypedArray,
    evaluate,
)
from repro.storage.catalog import Catalog
from repro.storage.layout import (
    PAGE_BYTES,
    ColumnExtent,
    FlashLayout,
)
from repro.util.bitvector import BitVector
from repro.util.units import GB

ROWID = "@rowid"


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
    rows_selected: int = 0
    rows_transformed: int = 0
    spilled_groups: int = 0
    tasks_run: int = 0
    pe_fallback_exprs: int = 0  # transforms evaluated off the PE path
    fault_stall_s: float = 0.0  # injected stalls on the critical channel


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
        self._mem_tables: dict[str, Relation] = {}

    @classmethod
    def from_database(
        cls, catalog: Catalog, **config_kwargs
    ) -> "AquomanDevice":
        return cls(catalog, DeviceConfig(**config_kwargs))

    # -- flash traffic ---------------------------------------------------------

    def charge_column_read(
        self, table: str, column: str, mask: BitVector | None = None
    ) -> int:
        """Meter reading one column, with page skipping under a mask.

        The Table Reader skips a flash page when every row vector on it
        is masked out (Sec. VI-B); an unmasked read streams the whole
        column file.
        """
        extent = self.layout.extent(table, column)
        if mask is None:
            return self.charge_pages(extent)
        return self.charge_pages(
            extent, mask.group_any(extent.rows_per_page())
        )

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
        METRICS.counter(
            "device.flash_pages_read", "pages streamed off flash"
        ).inc(touched)
        METRICS.counter(
            "device.flash_pages_skipped",
            "fully-masked pages the Table Reader skipped",
        ).inc(extent.n_pages - touched)
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

    def run_table_tasks(self, tasks: list[TableTask]) -> Relation | None:
        """Execute a chain of Table Tasks sequentially (Sec. V).

        Returns the relation of the last host-output task, if any.
        """
        result: Relation | None = None
        for task in tasks:
            out = self.run_table_task(task)
            if task.output is TaskOutput.HOST:
                result = out
        return result

    def run_table_task(self, task: TableTask) -> Relation:
        """Execute one Table Task through the full pipeline."""
        self.meters.tasks_run += 1
        base = self.catalog.table(task.table)
        nrows = base.nrows

        tracer = self.tracer
        with tracer.span("device.table_task", lane="device",
                         table=task.table):
            mask = self._resolve_mask(task, nrows)
            with tracer.span("device.row_selector",
                             lane="device.row_selector", rows_in=nrows):
                mask = self._run_row_selector(task, base, mask)
            with tracer.span("device.transformer",
                             lane="device.transformer"):
                transformed = self._run_row_transformer(task, base, mask)
            with tracer.span("device.swissknife",
                             lane="device.swissknife",
                             op=task.operator.name.lower()):
                output = self._run_swissknife(task, transformed)

        if task.output is TaskOutput.AQUOMAN_MEM:
            if not task.output_name:
                raise ValueError("AQUOMAN_MEM output needs output_name")
            self.store_intermediate(task.output_name, output)
        else:
            self.meters.output_bytes += output.nbytes()
        return output

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

    def _resolve_mask(self, task: TableTask, nrows: int) -> BitVector | None:
        if task.mask_src is None:
            return None
        source = self.load_intermediate(task.mask_src)
        rowids = source.column(ROWID).values
        return BitVector.from_indices(rowids.astype(np.int64), nrows)

    def _run_row_selector(
        self, task: TableTask, base, mask: BitVector | None
    ) -> BitVector | None:
        if not len(task.row_sel):
            return mask
        columns = {}
        for name in task.row_sel.columns:
            col = base.column(name)
            self.charge_column_read(task.table, name, None)
            columns[name] = col.values
        selected = self.row_selector.select(
            task.row_sel, columns, base.nrows, mask
        )
        self.meters.rows_selected += selected.count()
        return selected

    def _run_row_transformer(
        self, task: TableTask, base, mask: BitVector | None
    ) -> Relation:
        rowids = (
            mask.indices()
            if mask is not None
            else np.arange(base.nrows, dtype=np.int64)
        )

        needed = set()
        for _, expr in task.row_transf:
            needed |= expr.column_refs()
        needed.discard(ROWID)

        raw_columns: dict[str, TypedArray] = {}
        for name in sorted(needed):
            col = base.column(name)
            self.charge_column_read(task.table, name, mask)
            arr = typed_array_from_column(col)
            raw_columns[name] = TypedArray(
                arr.values[rowids], arr.kind, arr.scale, arr.heap
            )
        raw_columns[ROWID] = TypedArray(rowids, Kind.INT, 0)

        outputs = self._transform(task.row_transf, raw_columns, len(rowids))
        self.meters.rows_transformed += len(rowids)
        return outputs

    def _transform(
        self,
        row_transf: tuple[tuple[str, Expr], ...],
        columns: dict[str, TypedArray],
        nrows: int,
        subquery_executor=None,
    ) -> Relation:
        """Apply the transform: PE array where possible, else fallback.

        String predicates are pre-lowered through the regex accelerator
        into one-bit columns (as the Table Reader does); pure renames
        of string/rowid columns pass through; integer arithmetic runs
        on compiled PE programs and is the metered common case.
        """
        lowered, prepped = self._prelower_strings(row_transf, columns)

        pe_outputs: list[tuple[str, Expr]] = []
        passthrough: dict[str, TypedArray] = {}
        fallback: list[tuple[str, Expr]] = []
        from repro.sqlir.expr import ColumnRef

        for name, expr in lowered:
            if isinstance(expr, ColumnRef):
                passthrough[name] = prepped[expr.name]
                continue
            pe_outputs.append((name, expr))

        computed: dict[str, TypedArray] = {}
        if pe_outputs:
            scales = {
                n: (arr.scale if arr.kind is Kind.INT else 0)
                for n, arr in prepped.items()
            }
            try:
                graph = build_transform_graph(
                    pe_outputs, input_scales=scales,
                    imem_size=self.config.pe_imem_size,
                )
                raw = {
                    n: prepped[n].values for n in graph.input_order
                }
                results = graph.execute(raw)
                for (name, _), values, scale in zip(
                    pe_outputs, results, graph.output_scales
                ):
                    computed[name] = TypedArray(values, Kind.INT, scale)
            except UnsupportedTransform:
                fallback = pe_outputs
        if fallback:
            self.meters.pe_fallback_exprs += len(fallback)
            ctx = EvalContext(
                columns=prepped,
                nrows=nrows,
                subquery_executor=subquery_executor,
            )
            for name, expr in fallback:
                computed[name] = evaluate(expr, ctx)

        ordered: dict[str, TypedArray] = {}
        for name, _ in row_transf:
            ordered[name] = (
                passthrough[name] if name in passthrough else computed[name]
            )
        return Relation(ordered)

    def _prelower_strings(
        self,
        row_transf: tuple[tuple[str, Expr], ...],
        columns: dict[str, TypedArray],
    ) -> tuple[list[tuple[str, Expr]], dict[str, TypedArray]]:
        """Replace string predicates with regex-accelerator bit columns."""
        prepped = dict(columns)
        names = (f"@regex{i}" for i in itertools.count(1))
        lowered = [
            (name, self._lower(expr, prepped, names))
            for name, expr in row_transf
        ]
        return lowered, prepped

    def _lower(
        self, expr: Expr, prepped: dict[str, TypedArray], names
    ) -> Expr:
        """One expression of :meth:`_prelower_strings`, recursively.

        A method taking ``prepped``, not a closure over it: a recursive
        closure is a reference cycle, and this one would keep every
        column of the relation alive until the cyclic collector ran.
        """
        from repro.sqlir.expr import ColumnRef, Compare, CompareOp, Literal

        def bit_column(bits: np.ndarray) -> Expr:
            name = next(names)
            prepped[name] = TypedArray(bits.astype(np.int64), Kind.INT, 0)
            return ColumnRef(name)

        if isinstance(expr, Like) and isinstance(expr.column, ColumnRef):
            source = prepped[expr.column.name]
            return bit_column(self.regex_accel.match_like(
                source.values,
                source.heap,
                expr.regex(),
                expr.negated,
                self.effective_heap_bytes(source.heap),
            ))
        if isinstance(expr, InList) and isinstance(expr.column, ColumnRef):
            source = prepped[expr.column.name]
            if source.kind is Kind.STR:
                return bit_column(self.regex_accel.match_in(
                    source.values,
                    source.heap,
                    expr.options,
                    expr.negated,
                    self.effective_heap_bytes(source.heap),
                ))
            return expr
        if isinstance(expr, Compare):
            for col_side, lit_side in (
                (expr.left, expr.right), (expr.right, expr.left)
            ):
                if (
                    isinstance(col_side, ColumnRef)
                    and isinstance(lit_side, Literal)
                    and lit_side.kind is Kind.STR
                    and expr.op in (CompareOp.EQ, CompareOp.NE)
                ):
                    source = prepped[col_side.name]
                    return bit_column(self.regex_accel.match_equals(
                        source.values,
                        source.heap,
                        lit_side.raw,
                        expr.op is CompareOp.NE,
                        self.effective_heap_bytes(source.heap),
                    ))
        kids = expr.children()
        if not kids:
            return expr
        return _rebuild(
            expr, [self._lower(c, prepped, names) for c in kids]
        )

    # -- swissknife -----------------------------------------------------------------

    def _run_swissknife(self, task: TableTask, stream: Relation) -> Relation:
        op = task.operator
        args = task.operator_args

        if op is SwissknifeOp.NOP:
            return stream

        if op is SwissknifeOp.AGGREGATE:
            return self._swiss_aggregate(stream, args)

        if op is SwissknifeOp.AGGREGATE_GROUPBY:
            return self._swiss_groupby(stream, args)

        if op is SwissknifeOp.SORT:
            return self._swiss_sort(stream, args)

        if op in (SwissknifeOp.MERGE, SwissknifeOp.SORT_MERGE):
            return self._swiss_merge(stream, args, sort_first=(
                op is SwissknifeOp.SORT_MERGE))

        if op is SwissknifeOp.TOPK:
            return self._swiss_topk(stream, args)

        raise NotImplementedError(op)

    def _swiss_aggregate(self, stream: Relation, args: dict) -> Relation:
        out: dict[str, TypedArray] = {}
        for name, func, column in args["aggs"]:
            arr = stream.column(column)
            values = arr.values.astype(np.int64)
            result = _reduce_int(func, values)
            out[name] = TypedArray(
                np.array([result], dtype=np.int64), arr.kind, arr.scale
            )
        return Relation(out)

    def _swiss_groupby(self, stream: Relation, args: dict) -> Relation:
        keys: list[str] = args["keys"]
        key_arrays = [stream.column(k) for k in keys]
        widths = [4 if a.kind is Kind.STR else 8 for a in key_arrays]
        zipped, id_bytes = zip_group_columns(
            [a.values for a in key_arrays], widths
        )
        funcs = {c: f for _, f, c in args["aggs"]}
        result = self.groupby_accel.run(
            zipped,
            {c: stream.column(c).values for c in funcs},
            funcs,
            group_id_bytes=id_bytes,
        )
        self.meters.spilled_groups += result.n_spilled_groups

        # Spilled rows are accumulated by the host (Sec. VI-E); the
        # functional result merges both halves so outputs stay exact.
        merged = self._merge_spills(stream, keys, args["aggs"], result,
                                    zipped)
        return merged

    def _merge_spills(self, stream, keys, aggs, device_result, zipped):
        groups = group_rows([stream.column(k).values for k in keys])
        out: dict[str, TypedArray] = {}
        for k in keys:
            arr = stream.column(k)
            out[k] = TypedArray(
                arr.values[groups.representative], arr.kind, arr.scale,
                arr.heap,
            )
        for name, func, column in aggs:
            arr = stream.column(column)
            if func not in _GROUP_KERNELS:
                raise ValueError(f"unknown aggregate {func!r}")
            acc = _GROUP_KERNELS[func](arr.values.astype(np.int64), groups)
            out[name] = TypedArray(acc, arr.kind, arr.scale)
        return Relation(out)

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


_GROUP_KERNELS = {
    "sum": aggregate_sum,
    "min": aggregate_min,
    "max": aggregate_max,
    "cnt": lambda values, groups: aggregate_count(groups),
}


def _reduce_int(func: str, values: np.ndarray):
    if func == "sum":
        return values.sum() if len(values) else 0
    if func == "min":
        return values.min() if len(values) else 0
    if func == "max":
        return values.max() if len(values) else 0
    if func == "cnt":
        return len(values)
    raise ValueError(f"unknown aggregate {func!r}")


def effective_heap_bytes(
    heap, base_rows: int, scale_ratio: float, constant: bool = False
) -> int:
    """Heap size at the simulated scale factor.

    Constant tables (nation, region) never grow.  Elsewhere,
    enumerated domains (ship modes, brands, part types...) have heaps
    that do not grow with SF while free-text heaps grow linearly; the
    signature of a fixed domain is a distinct count far below the
    column's row count (and absolutely small).
    """
    if constant:
        return heap.heap_bytes
    fixed_domain = heap.unique_count <= min(1024, max(1, base_rows // 10))
    if fixed_domain:
        return heap.heap_bytes
    return int(heap.heap_bytes * scale_ratio)


def _heap_base(catalog: Catalog, heap) -> tuple[str | None, int]:
    """(table, row count) of the base column owning ``heap``."""
    for table in catalog.tables.values():
        for column in table.columns:
            if column.heap is heap:
                return table.name, table.nrows
    return None, heap.unique_count


def _rebuild(expr: Expr, children: list[Expr]) -> Expr:
    """Clone an expression node with replaced children."""
    from repro.sqlir.expr import (
        Arith,
        BoolExpr,
        CaseWhen,
        Compare,
        ExtractYear,
        Substring,
    )

    if isinstance(expr, Arith):
        return Arith(expr.op, children[0], children[1])
    if isinstance(expr, Compare):
        return Compare(expr.op, children[0], children[1])
    if isinstance(expr, BoolExpr):
        return BoolExpr(expr.op, tuple(children))
    if isinstance(expr, CaseWhen):
        return CaseWhen(children[0], children[1], children[2])
    if isinstance(expr, ExtractYear):
        return ExtractYear(children[0])
    if isinstance(expr, Substring):
        return Substring(children[0], expr.start, expr.length)
    if isinstance(expr, Like):
        return Like(children[0], expr.pattern, expr.negated)
    if isinstance(expr, InList):
        return InList(children[0], expr.options, expr.negated)
    if not children:
        return expr
    raise TypeError(f"cannot rebuild {type(expr).__name__}")
