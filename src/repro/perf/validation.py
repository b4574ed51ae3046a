"""Fig. 17 analogue: cross-validating two independent device timings.

The paper validated its trace-based simulator against the FPGA
prototype on q1/q6/q3/q10.  Our substitution keeps the method: time the
same queries two independent ways —

- **component-cycle estimate** (the "FPGA" side): each pipeline stage's
  time from its own activity counters at prototype clocks — the flash
  controller at 2.4 GB/s, the Row Selector at 8 values/cycle @125 MHz,
  the PE array at one 32-row vector per initiation interval, the sorter
  via the Table V throughput model, DMA at PCIe rate — combined as a
  pipeline (max of stage times), plus the host remainder;
- **analytic trace model** (the simulator side):
  :meth:`repro.perf.model.SystemModel.device_seconds` from aggregate
  byte counters.

Agreement within a small factor validates that the coarse model used
for Fig. 16 reflects the microarchitecture, exactly the argument of the
paper's Sec. VIII-D.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.device import AquomanDevice
from repro.core.swissknife.sorter import SorterThroughputModel
from repro.perf.model import AquomanConfig, SystemModel
from repro.perf.trace import QueryTrace
from repro.util.units import GB

PIPELINE_CLOCK_HZ = 125e6
SELECTOR_VALUES_PER_CYCLE = 8   # 32 B data beat / 4 B values
TRANSFORM_VECTOR_ROWS = 32


@dataclass(frozen=True)
class DeviceTimingPair:
    """The two independently-computed device times for one query."""

    query: str
    prototype_s: float  # component-cycle estimate
    simulator_s: float  # analytic trace model

    @property
    def relative_error(self) -> float:
        if self.simulator_s == 0:
            return 0.0 if self.prototype_s == 0 else float("inf")
        return abs(self.prototype_s - self.simulator_s) / self.simulator_s


def prototype_stage_seconds(
    trace: QueryTrace,
    device: AquomanDevice,
    scale_ratio: float,
    config: AquomanConfig | None = None,
) -> dict[str, float]:
    """Each pipeline stage's time from its own activity counter,
    scaled to the simulated SF, at prototype clocks."""
    cfg = config or AquomanConfig("AQUOMAN", dram_bytes=40 * GB)
    meters = device.meters
    return {
        "flash": (
            trace.aquoman_flash_bytes * scale_ratio
            / cfg.flash_read_bandwidth
        ),
        "selector": (
            device.row_selector.rows_scanned
            * scale_ratio
            / (SELECTOR_VALUES_PER_CYCLE * PIPELINE_CLOCK_HZ)
        ),
        # One row vector per ~4-instruction initiation interval: the
        # prototype's 4 PEs x 8-entry imem pipeline (Sec. VII).
        "transform": (
            meters.rows_transformed
            * scale_ratio
            / TRANSFORM_VECTOR_ROWS
            * 4
            / PIPELINE_CLOCK_HZ
        ),
        "sorter": SorterThroughputModel().sort_seconds(
            int(meters.sorter_bytes * scale_ratio), alternation=0.5
        ),
        "dma": meters.output_bytes * scale_ratio / cfg.dma_bandwidth,
    }


def prototype_device_seconds(
    trace: QueryTrace,
    device: AquomanDevice,
    scale_ratio: float,
    config: AquomanConfig | None = None,
) -> float:
    """The component-cycle ("FPGA") estimate of device time.

    The pipeline overlaps its stages, so the device time is the
    slowest stage plus the DMA drain.
    """
    stages = prototype_stage_seconds(trace, device, scale_ratio, config)
    dma_s = stages.pop("dma")
    return max(stages.values()) + dma_s


def validate_device_timing(
    trace: QueryTrace,
    device: AquomanDevice,
    scale_ratio: float,
    host_model: SystemModel,
) -> DeviceTimingPair:
    """Both timings for one simulated query (Fig. 17, one bar pair)."""
    from repro.perf.scaling import scale_trace

    scaled = scale_trace(trace, trace.scale_factor * scale_ratio)
    simulator_s = host_model.device_seconds(scaled)
    prototype_s = prototype_device_seconds(
        trace, device, scale_ratio, host_model.aquoman
    )
    return DeviceTimingPair(trace.query, prototype_s, simulator_s)
