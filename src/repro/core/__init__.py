"""AQUOMAN: the in-storage analytic-query offloading machine.

The device executes *Table Tasks* (Sec. V) through a fixed pipeline of
three programmable accelerators (Sec. IV):

``Row Selector`` → ``Row Transformer`` → ``SQL Swissknife``

- :mod:`repro.core.pe` / :mod:`repro.core.dataflow` — the Row
  Transformer's systolic array of integer vector PEs and the compiler
  that maps expression dataflow graphs onto them;
- :mod:`repro.core.row_selector` — column-predicate evaluators and the
  row-mask vector circular buffer;
- :mod:`repro.core.regex_accel` — the 1 MB string-heap regex cache;
- :mod:`repro.core.swissknife` — Aggregate-GroupBy, TopK, Merger and
  the 1 GB-block Streaming Sorter;
- :mod:`repro.core.memory` — the device DRAM manager for join
  intermediates;
- :mod:`repro.core.tabletask` / :mod:`repro.core.device` — the Table
  Task model and the device that runs them against flash
  (``run_table_task``, the one place the stages are sequenced);
- :mod:`repro.core.compiler` — the query compiler: offload analysis,
  suspension rules (Sec. VI-E), Table Task emission;
- :mod:`repro.core.simulator` — end-to-end query execution: schedules
  each offloaded subtree as Table Tasks on the device, runs the rest
  on the host engine, and emits performance traces.
"""

from repro.core.pe import PE, PEProgram, Instruction, Opcode
from repro.core.dataflow import TransformGraph, map_to_pes
from repro.core.row_selector import RowSelector, ColumnPredicate, PredicateProgram
from repro.core.regex_accel import RegexAccelerator, REGEX_CACHE_BYTES
from repro.core.memory import DeviceMemory, MemoryExceeded
from repro.core.tabletask import TableTask, SwissknifeOp, TaskOutput
from repro.core.device import AquomanDevice, DeviceConfig, DeviceStream
from repro.core.compiler import (
    OffloadDecision,
    QueryCompiler,
    SuspendReason,
)
from repro.core.simulator import AquomanSimulator, SimulationResult
from repro.core.resources import component_inventory, sorter_inventory

__all__ = [
    "PE",
    "PEProgram",
    "Instruction",
    "Opcode",
    "TransformGraph",
    "map_to_pes",
    "RowSelector",
    "ColumnPredicate",
    "PredicateProgram",
    "RegexAccelerator",
    "REGEX_CACHE_BYTES",
    "DeviceMemory",
    "MemoryExceeded",
    "TableTask",
    "SwissknifeOp",
    "TaskOutput",
    "AquomanDevice",
    "DeviceConfig",
    "DeviceStream",
    "QueryCompiler",
    "OffloadDecision",
    "SuspendReason",
    "AquomanSimulator",
    "SimulationResult",
    "component_inventory",
    "sorter_inventory",
]
