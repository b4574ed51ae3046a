"""Timing and memory models for host and AQUOMAN-augmented systems.

The models consume :class:`~repro.perf.trace.QueryTrace` records and
produce run times / footprints, mirroring the paper's trace-based
simulator (Sec. VII):

- **Host model** — MonetDB-style execution: I/O time from flash traffic
  at the device's sequential bandwidth, CPU time from per-operator work
  rates under Amdahl-limited thread scaling, disk-swap penalty when the
  working set exceeds DRAM.  Run time is ``max(io, cpu)`` (MonetDB
  overlaps scan I/O with processing) plus the swap penalty.
- **AQUOMAN model** — the device streams Table Tasks at the flash line
  rate (the pipeline's 4 GB/s exceeds the flash's 2.4 GB/s, Sec. VII),
  plus sorter re-streaming and DMA; the non-offloaded remainder runs on
  the host model.  Table-task execution is sequential w.r.t. the host
  remainder (Sec. V: tasks execute sequentially).

Rates are calibrated once, in this module, to land the baseline in the
paper's reported regime; every figure then derives from the same
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perf.trace import QueryTrace
from repro.util.units import GB, MB

# ---------------------------------------------------------------------------
# System configurations (Table VI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostConfig:
    """An x86 host size (paper Table VI)."""

    name: str
    hw_threads: int
    dram_bytes: int
    # Amdahl serial fraction of TPC-H plan work (joins' build phases,
    # final aggregation, result assembly).
    serial_fraction: float = 0.12


@dataclass(frozen=True)
class AquomanConfig:
    """An AQUOMAN device size (paper Table VI)."""

    name: str
    dram_bytes: int
    flash_read_bandwidth: float = 2.4 * GB
    pipeline_bandwidth: float = 4.0 * GB  # Sec. VII: 4 GB/s at 125 MHz
    device_dram_bandwidth: float = 36.0 * GB  # VCU108 DDR4
    dma_bandwidth: float = 8.0 * GB  # PCIe to host


HOST_S = HostConfig("S", hw_threads=4, dram_bytes=16 * GB)
HOST_L = HostConfig("L", hw_threads=32, dram_bytes=128 * GB)
AQUOMAN_40GB = AquomanConfig("AQUOMAN", dram_bytes=40 * GB)
AQUOMAN_16GB = AquomanConfig("AQUOMAN16", dram_bytes=16 * GB)


# ---------------------------------------------------------------------------
# Calibrated software work rates (per hardware thread)
# ---------------------------------------------------------------------------

# Streaming operators (scan/filter/project) move bytes at roughly memory
# bandwidth per core for vectorised code.
STREAM_BYTES_PER_THREAD_S = 1.2 * GB
# Join work is per examined row + produced pair.
JOIN_ROWS_PER_THREAD_S = 45e6
# Hash/group aggregation.
AGG_ROWS_PER_THREAD_S = 90e6
# Large-group hash aggregation runs serially in MonetDB (the hash build
# does not parallelise) and is cache-miss bound — the reason the paper's
# Q17/Q18 baselines are so slow (Sec. VIII-B).
SERIAL_AGG_GROUP_THRESHOLD = 4_000_000
SERIAL_AGG_ROWS_S = 12.5e6  # one DRAM miss (~80 ns) per row
# AQUOMAN-assisted accumulate: the device pre-hashes, the host performs
# "~200 millions memory lookup-and-accumulates per second" (Sec. VI-E).
ASSISTED_AGG_ROWS_S = 200e6
# Software sort (the n log n factor is applied separately).
SORT_ROWS_PER_THREAD_S = 25e6
# Baseline flash bandwidth (five SATA/m.2 drives capped to match
# BlueDBM, Sec. VIII-A).
BASELINE_READ_BANDWIDTH = 2.4 * GB
BASELINE_WRITE_BANDWIDTH = 1.6 * GB
# Fixed per-query software overhead (plan setup, catalog, result ship).
QUERY_OVERHEAD_S = 0.5


@dataclass(frozen=True)
class QueryTiming:
    """Model output for one (query, system) pair.

    ``runtime_s`` is derived from the parts, here and nowhere else, so
    a what-if that changes one part (``dataclasses.replace``) re-times
    the query by the same rule.
    """

    query: str
    system: str
    io_s: float
    cpu_s: float
    device_s: float
    swap_s: float
    host_peak_bytes: int
    host_avg_bytes: int
    device_peak_bytes: int
    cpu_busy_s: float  # thread-seconds of host CPU actually burned

    @property
    def host_s(self) -> float:
        """The host remainder: MonetDB overlaps its scan I/O with its
        processing, then pays any swap."""
        return max(self.cpu_s, self.io_s) + self.swap_s

    @property
    def runtime_s(self) -> float:
        """Table Tasks run, then the host remainder."""
        return QUERY_OVERHEAD_S + self.device_s + self.host_s

    @property
    def device_fraction(self) -> float:
        """Share of wall-clock spent streaming on the device."""
        if self.runtime_s <= 0:
            return 0.0
        return min(1.0, self.device_s / self.runtime_s)


class SystemModel:
    """Turns traces into run times for a (host, optional-AQUOMAN) pair."""

    def __init__(
        self,
        host: HostConfig,
        aquoman: AquomanConfig | None = None,
    ):
        self.host = host
        self.aquoman = aquoman

    @property
    def name(self) -> str:
        if self.aquoman is None:
            return self.host.name
        return f"{self.host.name}-{self.aquoman.name}"

    # -- host-side cost ------------------------------------------------------

    def _effective_threads(self) -> float:
        """Amdahl-limited effective parallelism."""
        n = self.host.hw_threads
        serial = self.host.serial_fraction
        return 1.0 / (serial + (1.0 - serial) / n)

    def host_cpu_seconds(self, trace: QueryTrace) -> tuple[float, float]:
        """Single-thread CPU work implied by the trace's ops.

        Returns ``(parallel_work, serial_work)`` in thread-seconds:
        parallel work divides across hardware threads (Amdahl-limited);
        serial work — large-group hash aggregation — does not.
        """
        parallel = 0.0
        serial = 0.0
        for op in trace.ops:
            if op.op == "join":
                parallel += (
                    op.rows_in + op.rows_out
                ) / JOIN_ROWS_PER_THREAD_S
            elif op.op in ("aggregate", "distinct"):
                if op.assisted:
                    # Device pre-hashed the stream; the host only
                    # accumulates, at the paper's lookup rate.
                    serial += op.rows_in / ASSISTED_AGG_ROWS_S
                elif op.groups > SERIAL_AGG_GROUP_THRESHOLD:
                    serial += op.rows_in / SERIAL_AGG_ROWS_S
                else:
                    parallel += op.rows_in / AGG_ROWS_PER_THREAD_S
            elif op.op == "sort":
                n = max(op.rows_in, 2)
                parallel += (
                    op.rows_in * math.log2(n) / 20.0
                ) / SORT_ROWS_PER_THREAD_S
            else:  # scan / filter / project / limit stream bytes
                parallel += op.bytes_in / STREAM_BYTES_PER_THREAD_S
        return parallel, serial

    def host_io_seconds(self, trace: QueryTrace) -> float:
        # Injected fault stalls (retry backoff, latency spikes) sit on
        # the critical flash channel, so they add to the I/O term.
        return (
            trace.total_flash_bytes / BASELINE_READ_BANDWIDTH
            + trace.fault_stall_s
        )

    def swap_seconds(self, trace: QueryTrace) -> float:
        """Disk-swap penalty when intermediates exceed host DRAM."""
        excess = max(0, trace.peak_host_bytes - self.host.dram_bytes)
        # Written once, read back once; sequential-friendly.
        return excess / BASELINE_WRITE_BANDWIDTH + (
            excess / BASELINE_READ_BANDWIDTH
        )

    # -- device-side cost -------------------------------------------------------

    def device_terms(self, trace: QueryTrace) -> dict[str, float]:
        """The device's seconds by cause; :meth:`device_seconds` sums them.

        ``stream`` is flash time in every shipped configuration (the
        pipeline's 4 GB/s exceeds the flash's 2.4 GB/s), ``sorter`` the
        Swissknife's DRAM re-streaming, ``dma`` the output ship-back and
        ``fault_stall`` injected stalls on the critical flash channel.
        """
        aq = self.aquoman
        if aq is None or trace.aquoman_flash_bytes == 0:
            return {"stream": 0.0, "sorter": 0.0, "dma": 0.0,
                    "fault_stall": 0.0}
        return {
            "stream": trace.aquoman_flash_bytes / min(
                aq.flash_read_bandwidth, aq.pipeline_bandwidth
            ),
            "sorter": trace.aquoman_sorter_bytes / aq.device_dram_bandwidth,
            "dma": trace.aquoman_output_bytes / aq.dma_bandwidth,
            "fault_stall": trace.aquoman_fault_stall_s,
        }

    def device_seconds(self, trace: QueryTrace) -> float:
        return sum(self.device_terms(trace).values())

    # -- combined ------------------------------------------------------------------

    def time_query(self, trace: QueryTrace) -> QueryTiming:
        """Run time and footprints for one query on this system.

        For a plain host system pass a pure-host trace; for an
        AQUOMAN-augmented system pass the combined trace produced by the
        AQUOMAN simulator (host ops = the non-offloaded remainder).
        """
        parallel_work, serial_work = self.host_cpu_seconds(trace)
        cpu_work = parallel_work + serial_work
        cpu_s = parallel_work / self._effective_threads() + serial_work
        host_peak = trace.peak_host_bytes
        # Average RSS proxy: intermediates-ever / a working-set turnover
        # factor, floored by the final result size.
        host_avg = min(
            host_peak, max(trace.total_intermediate_bytes // 6, 64 * MB)
        )
        return QueryTiming(
            query=trace.query,
            system=self.name,
            io_s=self.host_io_seconds(trace),
            cpu_s=cpu_s,
            device_s=self.device_seconds(trace),
            swap_s=self.swap_seconds(trace),
            host_peak_bytes=host_peak,
            host_avg_bytes=host_avg,
            device_peak_bytes=trace.aquoman_dram_peak_bytes,
            cpu_busy_s=cpu_work,
        )
