"""Performance modelling: traces, SF scaling, timing and memory models.

The paper evaluates AQUOMAN with a trace-based simulator integrated into
MonetDB (Sec. VII): the software executes the real plan while recording
flash traffic, AQUOMAN memory footprint and sorter usage; an analytic
model then turns traces into run times.  This package is our version of
that simulator.
"""

from repro.perf.trace import OpTrace, QueryTrace
from repro.perf.scaling import scale_trace
from repro.perf.model import (
    AquomanConfig,
    HostConfig,
    SystemModel,
    QueryTiming,
    AQUOMAN_16GB,
    AQUOMAN_40GB,
    HOST_L,
    HOST_S,
)
from repro.perf.report import EvaluationReport, run_evaluation

__all__ = [
    "OpTrace",
    "QueryTrace",
    "scale_trace",
    "HostConfig",
    "AquomanConfig",
    "SystemModel",
    "QueryTiming",
    "HOST_S",
    "HOST_L",
    "AQUOMAN_40GB",
    "AQUOMAN_16GB",
    "EvaluationReport",
    "run_evaluation",
]
