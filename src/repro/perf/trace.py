"""Execution traces: what a query *did*, independent of how fast.

Both executors emit the same trace schema:

- per-base-column flash bytes actually touched (after page skipping);
- per-operator row/byte flows ("work");
- peak intermediate memory alive at once;
- AQUOMAN-specific usage (sorter bytes, DRAM footprint, spills,
  suspension point), filled in by the device model.

The timing models in :mod:`repro.perf.model` consume only these records,
which is what lets us scale small-SF runs to the paper's SF-1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpTrace:
    """One operator's data flow during a query."""

    op: str                 # "scan" | "filter" | "join" | "aggregate" | ...
    rows_in: int
    rows_out: int
    bytes_in: int
    bytes_out: int
    detail: str = ""
    # Aggregates: group cardinality (drives the serial-hash penalty) and
    # whether AQUOMAN pre-hashed the stream (the assisted mode that makes
    # Q17/Q18 partial offloads profitable).
    groups: int = 0
    assisted: bool = False

    def __repr__(self) -> str:
        return (
            f"OpTrace({self.op}, in={self.rows_in}, out={self.rows_out}"
            + (f", {self.detail}" if self.detail else "")
            + ")"
        )


@dataclass
class QueryTrace:
    """Everything the performance model needs to know about one run.

    The one record of what a query did.  Per field, who writes it ->
    who reads it (``model`` is :class:`~repro.perf.model.SystemModel`;
    :func:`~repro.perf.scaling.scale_trace` carries every field):

    - ``query``, ``scale_factor``: whoever builds the trace -> scaling,
      reports;
    - ``flash_read_bytes``: ``Engine._scan``, ``MorselExecutor._record``
      -> model host I/O, doctor explain;
    - ``flash_pages_read``, ``flash_pages_skipped``:
      ``MorselExecutor._record`` -> doctor explain, page-skip ablations;
    - ``ops``: ``Engine._account``, ``MorselExecutor._record``, the
      simulator's spill accumulate -> model host CPU,
      :meth:`rows_processed`;
    - ``peak_host_bytes``: the same sites' live-set estimates -> model
      swap and RSS (Fig. 16(b)), ``bench/``;
    - ``total_intermediate_bytes``: :meth:`record_op` -> model avg RSS;
    - ``aquoman_flash_bytes``, ``aquoman_sorter_bytes``,
      ``aquoman_output_bytes``, ``aquoman_fault_stall_s``: the
      simulator, from the device meters -> model device terms, doctor,
      scale-out model;
    - ``aquoman_dram_peak_bytes``: the simulator -> model, Fig. 16(b)/17;
    - ``groupby_spill_groups``: the simulator -> suspend scorecard,
      offload classes;
    - ``suspended``, ``suspend_reason``, ``offload_fraction_rows``: the
      simulator -> CLI, Fig. 16(c), ``bench/``;
    - ``fault_stall_s``: ``MorselExecutor._record`` under injection ->
      model host I/O.
    """

    query: str = ""
    scale_factor: float = 1.0

    # Flash traffic: (table, column) -> bytes read from the device.
    flash_read_bytes: dict[tuple[str, str], int] = field(default_factory=dict)
    # Page-granular skip accounting (filled by the morsel / page-skip
    # paths): (table, column) -> pages actually read vs. pages the
    # column spans.  The difference is what the Table Reader saved.
    flash_pages_read: dict[tuple[str, str], int] = field(default_factory=dict)
    flash_pages_skipped: dict[tuple[str, str], int] = field(
        default_factory=dict
    )

    ops: list[OpTrace] = field(default_factory=list)

    # Peak bytes of intermediates alive at one time on the host.
    peak_host_bytes: int = 0
    # Sum of all intermediate bytes ever produced (avg-RSS proxy).
    total_intermediate_bytes: int = 0

    # --- AQUOMAN-side usage (zero for pure-host runs) ---
    aquoman_flash_bytes: int = 0      # streamed through the device pipeline
    aquoman_sorter_bytes: int = 0     # bytes passed through the sorter
    aquoman_dram_peak_bytes: int = 0  # intermediate tables in device DRAM
    aquoman_output_bytes: int = 0     # DMA'd back to the host
    groupby_spill_groups: int = 0     # Aggregate-GroupBy bucket spills
    suspended: bool = False           # query handed back to the host
    suspend_reason: str = ""
    offload_fraction_rows: float = 0.0  # share of row-work done on device

    # --- injected fault stalls (zero on fault-free runs) ---
    # Marginal wall-clock the slowest flash channel lost to injected
    # retry backoff / latency spikes / channel stalls, host and device
    # side; the timing models add these to their I/O terms.
    fault_stall_s: float = 0.0
    aquoman_fault_stall_s: float = 0.0

    def record_flash(self, table: str, column: str, n_bytes: int) -> None:
        key = (table, column)
        self.flash_read_bytes[key] = (
            self.flash_read_bytes.get(key, 0) + n_bytes
        )

    def record_flash_pages(
        self,
        table: str,
        column: str,
        pages_read: int,
        pages_total: int,
        page_bytes: int,
    ) -> None:
        """Charge a page-skipped column read.

        Only the ``pages_read`` pages the Table Reader actually fetched
        count toward flash bytes; the remaining ``pages_total -
        pages_read`` are recorded as skipped so ablations can report
        the savings.
        """
        key = (table, column)
        self.flash_pages_read[key] = (
            self.flash_pages_read.get(key, 0) + pages_read
        )
        self.flash_pages_skipped[key] = (
            self.flash_pages_skipped.get(key, 0)
            + (pages_total - pages_read)
        )
        self.record_flash(table, column, pages_read * page_bytes)

    def record_op(self, op: OpTrace) -> None:
        self.ops.append(op)
        self.total_intermediate_bytes += op.bytes_out

    def observe_host_bytes(self, live_bytes: int) -> None:
        self.peak_host_bytes = max(self.peak_host_bytes, live_bytes)

    @property
    def total_flash_bytes(self) -> int:
        return sum(self.flash_read_bytes.values())

    def rows_processed(self) -> int:
        """Total operator row-work (the CPU-cycle proxy)."""
        return sum(op.rows_in for op in self.ops)

    def __repr__(self) -> str:
        return (
            f"QueryTrace({self.query!r}, flash={self.total_flash_bytes}B, "
            f"ops={len(self.ops)}, peak={self.peak_host_bytes}B)"
        )
