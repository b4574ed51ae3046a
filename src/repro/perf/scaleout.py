"""Scale-out extensions: the paper's stated future work (Sec. IX).

The paper closes with two open setups: *parallel execution of queries*
and *distributed execution of queries whose data is spread over
multiple AQUOMAN SSDs*.  This module models both on top of the same
trace records that drive Fig. 16:

- :class:`MultiDeviceModel` — tables range-partitioned over ``n``
  AQUOMAN SSDs; each device streams its shard concurrently, the host
  merges the (already reduced) per-device outputs.  Streaming Table
  Tasks scale near-linearly; the host remainder and the per-query
  setup don't — an Amdahl curve whose knee the benchmark locates.
- :func:`concurrent_makespan` — a bottleneck (roofline) model of
  running a query mix with inter-query parallelism: total time is the
  binding resource among host CPU thread-seconds, host flash
  bandwidth, and the device's streaming occupancy.  It reproduces the
  intuition the paper's Sec. VIII-C hedges on: with AQUOMAN the host
  CPU stops being the binding resource, so concurrent-query throughput
  rises even though single-query latency is flash-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.model import (
    BASELINE_READ_BANDWIDTH,
    QUERY_OVERHEAD_S,
    SystemModel,
)
from repro.perf.trace import QueryTrace


@dataclass(frozen=True)
class MultiDeviceTiming:
    """One query on an ``n``-device AQUOMAN array."""

    query: str
    n_devices: int
    runtime_s: float
    device_s: float       # per-device streaming time (they overlap)
    host_s: float
    merge_s: float


class MultiDeviceModel:
    """Distribute a query's device work over ``n_devices`` SSDs.

    Partitioning is by row ranges, so streaming Table Tasks (selection,
    transform, pre-aggregation) split perfectly; the host-side
    remainder is unchanged, and merging the per-device reduced outputs
    costs one extra pass over the DMA'd bytes.
    """

    def __init__(self, base: SystemModel, n_devices: int):
        if n_devices < 1:
            raise ValueError("need at least one device")
        if base.aquoman is None:
            raise ValueError("scale-out needs an AQUOMAN-augmented system")
        self.base = base
        self.n_devices = n_devices

    def time_query(self, trace: QueryTrace) -> MultiDeviceTiming:
        single = self.base.time_query(trace)
        device_each = single.device_s / self.n_devices
        # Host merges n reduced outputs instead of one.
        merge_s = (
            (self.n_devices - 1)
            * trace.aquoman_output_bytes
            / BASELINE_READ_BANDWIDTH
        )
        runtime = QUERY_OVERHEAD_S + device_each + single.host_s + merge_s
        return MultiDeviceTiming(
            query=trace.query,
            n_devices=self.n_devices,
            runtime_s=runtime,
            device_s=device_each,
            host_s=single.host_s,
            merge_s=merge_s,
        )


@dataclass(frozen=True)
class WorkloadThroughput:
    """Concurrent-query roofline for one system configuration."""

    system: str
    makespan_s: float
    binding_resource: str  # "cpu" | "flash" | "device"
    queries_per_hour: float


def concurrent_makespan(
    model: SystemModel,
    traces: dict[str, QueryTrace],
    n_concurrent_streams: int = 8,
) -> WorkloadThroughput:
    """Bottleneck model of running all ``traces`` with inter-query
    parallelism.

    Each resource's busy time is summed across the workload; with
    enough concurrent streams the makespan converges to the busiest
    resource (queries pipeline behind it).  ``n_concurrent_streams``
    bounds how much the per-query serial latency can hide.
    """
    cpu_busy = 0.0
    flash_busy = 0.0
    device_busy = 0.0
    latency_sum = 0.0
    for trace in traces.values():
        timing = model.time_query(trace)
        cpu_busy += timing.cpu_busy_s / model.host.hw_threads
        flash_busy += timing.io_s
        device_busy += timing.device_s
        latency_sum += timing.runtime_s

    serial_floor = latency_sum / n_concurrent_streams
    resources = {
        "cpu": cpu_busy,
        "flash": flash_busy,
        "device": device_busy,
    }
    binding = max(resources, key=resources.get)
    makespan = max(serial_floor, *resources.values())
    return WorkloadThroughput(
        system=model.name,
        makespan_s=makespan,
        binding_resource=binding if makespan > serial_floor else "latency",
        queries_per_hour=len(traces) / makespan * 3600,
    )
