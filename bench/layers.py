"""Metric names, and how trace spans become per-layer times.

The names here are the contract: ``BENCHMARK.json`` lists exactly
``END_TO_END`` and ``PER_LAYER`` (``test_harness.py`` checks it), and
``run.py`` prints exactly these.

A layer's time is the summed *self*-time of its spans — a span's
duration minus its children's — so layers partition the time inside a
``bench.query`` span and add up to it.  Spans the harness records
around its own work (``bench.*``: the kernel, result checks) belong to
no layer.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's
# median by which the metric may worsen; NOISE.md holds the evidence.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.15),
    ("query_ms_geomean", "ms", "lower", 0.15),
    ("query_ms_max", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.08),
    ("sim_runtime_s", "s", "lower", 0.08),
    ("sim_flash_bytes", "bytes", "lower", 0.08),
)

# Layers timed inside a pass: metric -> the span names whose self-time
# it sums.  Any other non-``bench.*`` span inside a query lands in
# ``engine.other_ms`` so nothing the program adds later goes missing.
PASS_LAYERS = {
    "engine.scan_ms": ("engine.scan",),
    "engine.filter_ms": ("engine.filter",),
    "engine.project_ms": ("engine.project",),
    "engine.join_ms": ("engine.join",),
    "engine.aggregate_ms": ("engine.aggregate",),
    "engine.sort_ms": ("engine.sort",),
    "engine.to_table_ms": ("engine.to_table",),
    "engine.other_ms": (
        "engine.execute", "engine.query", "engine.limit",
        "engine.distinct",
    ),
    "engine.morsel_fragment_ms": ("morsel.fragment",),
    "engine.morsel_span_ms": ("morsel.span",),
    "engine.morsel_merge_ms": ("morsel.merge",),
    "core.compile_ms": ("device.compile",),
    "core.row_selector_ms": ("device.row_selector",),
    "core.transformer_ms": ("device.transformer",),
    "core.swissknife_ms": ("device.swissknife",),
    "core.output_dma_ms": ("device.output_dma",),
    "core.project_ms": ("device.project",),
    "core.join_ms": ("device.join",),
    "core.device_op_ms": (
        "core.simulate", "device.subtree", "device.table_task",
        "device.scan", "device.filter", "device.aggregate",
        "device.distinct",
    ),
    "sqlir.plan_ms": ("sqlir.plan",),
    "analysis.gate_ms": (
        "analysis.gate", "analysis.plan", "analysis.types",
        "analysis.suspend", "analysis.pe", "analysis.morsel",
    ),
}
CATCH_ALL = "engine.other_ms"

# Layers timed while a round constructs its runner, before the first
# query: the part of ``setup_s`` that is not first executions.
SETUP_LAYERS = {
    "storage.load_ms": ("storage.load", "io.load_table"),
    "storage.layout_ms": ("storage.layout",),
    "tpch.plan_build_ms": ("tpch.plan_build",),
    "analysis.full_ms": (
        "analysis.full", "analysis.plan", "analysis.types",
        "analysis.suspend", "analysis.pe", "analysis.morsel",
    ),
}

# The host engine's share of a device-path query (everything the
# compiler did not offload): a roll-up of these layers, reported as
# ``core.host_fallback_ms`` on tpch_device and not added to the sum.
HOST_LAYERS = tuple(
    name for name in PASS_LAYERS
    if name.startswith("engine.") and name != "engine.to_table_ms"
)

PER_LAYER = (
    *((name, "ms", "lower") for name in PASS_LAYERS),
    ("core.host_fallback_ms", "ms", "lower"),
    ("sqlir.parse_ms", "ms", "lower"),
    ("perf.model_ms", "ms", "lower"),
    *((name, "ms", "lower") for name in SETUP_LAYERS),
    ("engine.rows_processed", "count", "lower"),
    ("engine.morsel_spans", "count", "lower"),
    ("engine.peak_host_bytes", "bytes", "lower"),
    ("engine.procpool_pass_s", "s", "lower"),
    ("flash.pages_read", "count", "lower"),
    ("flash.pages_skipped", "count", "higher"),
    ("flash.skip_ratio", "ratio", "higher"),
    ("flash.bytes_host", "bytes", "lower"),
    ("flash.bytes_device", "bytes", "lower"),
    ("core.tasks_run", "count", "lower"),
    ("core.rows_selected", "count", "lower"),
    ("core.rows_transformed", "count", "lower"),
    ("core.pe_fallback_exprs", "count", "lower"),
    ("core.spilled_groups", "count", "lower"),
    ("core.suspended_queries", "count", "lower"),
    ("core.offload_fraction_rows", "ratio", "higher"),
    ("storage.bytes_on_disk", "bytes", "lower"),
    ("tpch.generate_s", "s", "lower"),
    ("storage.save_s", "s", "lower"),
    ("harness.calib_ms", "ms", "lower"),
    ("harness.speed_factor_min", "ratio", "higher"),
    ("harness.speed_factor_max", "ratio", "lower"),
    ("harness.wall_pass_s", "s", "lower"),
    ("harness.wall_setup_s", "s", "lower"),
    ("harness.samples_per_query", "count", "higher"),
    ("harness.rounds", "count", "higher"),
    ("harness.cpu_count", "count", "higher"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.layer_sum_pct", "%", "higher"),
)

_LAYER_OF_PASS_SPAN = {
    span: layer for layer, spans in PASS_LAYERS.items() for span in spans
}
_LAYER_OF_SETUP_SPAN = {
    span: layer for layer, spans in SETUP_LAYERS.items() for span in spans
}


def self_ms_by_span(records) -> dict[str, float]:
    """Summed self-time (ms) per span name; instants are skipped."""
    out: dict[str, float] = {}
    for name, _lane, _start, dur, _depth, self_ns, _args in records:
        if dur >= 0:
            out[name] = out.get(name, 0.0) + self_ns / 1e6
    return out


def pass_layer_ms(records) -> dict[str, float]:
    """Wall ms per pass layer from the records of one pass, and beside
    them the ``sqlir.parse`` spans timed outside the queries."""
    by_span = self_ms_by_span(records)
    out = dict.fromkeys(PASS_LAYERS, 0.0)
    out["sqlir.parse_ms"] = by_span.pop("sqlir.parse", 0.0)
    for span, ms in by_span.items():
        if not span.startswith("bench."):
            out[_LAYER_OF_PASS_SPAN.get(span, CATCH_ALL)] += ms
    return out


def setup_layer_ms(records) -> dict[str, float]:
    """Wall ms per set-up layer from the records of one construct
    window (load, plans, analysis, executors)."""
    out = dict.fromkeys(SETUP_LAYERS, 0.0)
    for span, ms in self_ms_by_span(records).items():
        layer = _LAYER_OF_SETUP_SPAN.get(span)
        if layer is not None:
            out[layer] += ms
    return out
