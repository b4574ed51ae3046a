"""Table Tasks: AQUOMAN's programming model (Sec. V).

A Table Task applies the fixed pipeline — row selection, row
transformation, one Swissknife operator — to one streamed input,
writing its output to device DRAM, back to the host, or on to the next
task.  Complex queries chain tasks, exactly like the paper's Fig. 5
join example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.row_selector import PredicateProgram
from repro.sqlir.expr import Expr


class SwissknifeOp(Enum):
    """The seven Swissknife operators (Sec. V)."""

    NOP = "nop"
    TOPK = "topk"
    SORT = "sort"
    MERGE = "merge"
    SORT_MERGE = "sort_merge"
    AGGREGATE = "aggregate"
    AGGREGATE_GROUPBY = "aggregate_groupby"


class TaskOutput(Enum):
    HOST = "host"
    AQUOMAN_MEM = "aquoman_mem"
    # Handed to whoever scheduled the task — the next task of a chain
    # or the join glue, which accounts DRAM and DMA for it itself.
    STREAM = "stream"


@dataclass
class TableTask:
    """One configured pass of the device pipeline over one input.

    Mirrors the paper's structure field-for-field:

    - ``table`` — the input base table, of which ``columns`` are read
      (``None`` = all); a task with no ``table`` runs on the stream its
      scheduler hands to ``run_table_task`` (an earlier task's output
      or a join's pairs);
    - ``mask_src`` — where row-processing masks come from: ``None``
      (all rows) or a DRAM intermediate holding row ids;
    - ``row_sel`` — the Row Selection Program (single-column constant
      predicates only), and ``row_filter`` — the conjuncts it could not
      take, which the Row Transformer evaluates into a second row mask
      (Sec. VI-A);
    - ``row_transf`` — output column expressions mapped over selected
      rows (compiled onto the PE array by the device); ``None`` passes
      the input columns through untouched;
    - ``operator`` — the Swissknife reduction, with ``operator_args``
      (e.g. the DRAM partner of a SORT_MERGE, TopK's k; for the two
      aggregates ``keys``, ``aggregates`` — the plan's ``AggSpec`` s —
      and ``having``, or ``distinct`` for a key-only group-by);
    - ``output`` — HOST (DMA), AQUOMAN_MEM under ``output_name``, or
      STREAM;
    - ``nodes`` — pipeline stage (``scan``, ``filter``, ``project``,
      ``aggregate``, ``distinct``) to the analyzer id of the plan node
      it was emitted from, so each stage's span can be joined to the
      plan; empty for hand-written tasks.
    """

    table: str | None = None
    row_transf: tuple[tuple[str, Expr], ...] | None = None
    columns: tuple[str, ...] | None = None
    mask_src: str | None = None
    row_sel: PredicateProgram = PredicateProgram(())
    row_filter: Expr | None = None
    operator: SwissknifeOp = SwissknifeOp.NOP
    operator_args: dict = field(default_factory=dict)
    output: TaskOutput = TaskOutput.HOST
    output_name: str = ""
    nodes: dict[str, int | None] = field(default_factory=dict)

    def __repr__(self) -> str:
        dest = {
            TaskOutput.HOST: "Host",
            TaskOutput.AQUOMAN_MEM: self.output_name,
            TaskOutput.STREAM: "stream",
        }[self.output]
        transf = (
            "*" if self.row_transf is None
            else [n for n, _ in self.row_transf]
        )
        return (
            f"TableTask({self.table or 'stream'}, "
            f"sel={len(self.row_sel)}CP"
            f"{'+filter' if self.row_filter is not None else ''}, "
            f"transf={transf}, {self.operator.value} -> {dest})"
        )
