"""Runtime observability: spans, metrics, and their exporters.

What :mod:`repro.perf.trace` is to the paper's *modeled* data flow,
this package is to the Python runtime's *actual* behaviour:

``spans``
    :class:`Tracer` — monotonic wall-clock spans with nesting, one
    ring buffer for the recording thread and one per adopted
    ``proc-worker-N`` lane; nothing in it is locked.  Executors take a
    ``tracer=`` argument and default to the free :data:`NULL_TRACER`.
``metrics``
    :class:`MetricsRegistry` — process-wide counters / gauges /
    histograms (pages read and skipped, cache hits, suspensions,
    rows per stage), keyed by name and updated at batch granularity
    from the hot paths; each query's movement lands in its wide event.
``export``
    Chrome trace-event JSON (``chrome://tracing`` / Perfetto, one lane
    per worker process and device stage), and the one JSON-schema
    interpreter that validates both documents the package writes: the
    Chrome trace and the wide event.
``critpath``
    Span-forest reconstruction and critical-path extraction — which
    lane gated a run, with per-lane utilization and bottleneck
    attribution.  Input is the tracer's raw records, so tests feed it
    synthetic fixtures deterministically.
``context`` / ``qlog``
    The ambient state: per-query identity and the process-wide
    degraded flag (``context``); the query log and its wide events
    (``qlog``).

A run is recorded twice, and only twice: one wide event per query
(``--query-log``) and one Chrome trace of the whole run
(``--trace-out``), whose spans each carry their query's ``qid``.
Nothing here outlives the process: there is no scrape endpoint and no
time series.

Layering: this package imports nothing from the rest of ``repro`` (the
executors, storage and analysis import *us*), so it can be threaded
through every layer without cycles.  One module sits above it and is
deliberately not imported here — import it by name: ``obs.doctor``,
the query doctor, *drives* the engine, simulator and perf model.
"""

from __future__ import annotations

from repro.obs.context import (
    QueryContext,
    clear_degraded,
    get_degraded,
    get_query_context,
    plan_fingerprint,
    set_degraded,
    set_query_context,
)
from repro.obs.critpath import CritPathAnalysis, analyze_records
from repro.obs.qlog import (
    QueryLog,
    get_query_log,
    query_scope,
    set_query_log,
    validate_wide_event,
    warn_dropped_spans,
)
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsDelta,
    MetricsRegistry,
)
from repro.obs.spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_global_tracer,
    traced,
)

__all__ = [
    "METRICS",
    "NULL_TRACER",
    "Counter",
    "CritPathAnalysis",
    "Gauge",
    "Histogram",
    "MetricsDelta",
    "MetricsRegistry",
    "NullTracer",
    "QueryContext",
    "QueryLog",
    "Span",
    "Tracer",
    "analyze_records",
    "chrome_trace",
    "clear_degraded",
    "get_degraded",
    "get_query_context",
    "get_query_log",
    "get_tracer",
    "plan_fingerprint",
    "query_scope",
    "set_degraded",
    "set_query_context",
    "set_query_log",
    "set_global_tracer",
    "traced",
    "validate_wide_event",
    "warn_dropped_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
]
