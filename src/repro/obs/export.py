"""Exporters: Chrome trace-event JSON and Prometheus text.

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON Array
with metadata" flavour: a ``traceEvents`` list of complete (``"X"``),
instant (``"i"``) and metadata (``"M"``) events.  Every lane — the
recording thread's, each adopted ``proc-worker-N`` and the synthetic
device-stage lanes — becomes a ``tid`` row named by a ``thread_name``
metadata event, so morsel workers and device stages render as separate
swimlanes.  :func:`chrome_trace` renders a list of ``(lane, record)``
pairs, so one query's window of a long-lived tracer renders the same
way as a whole tracer.

Validators return a list of problems (empty = valid) instead of
raising, so callers can report all of them.  Both JSON documents the
package writes — the Chrome trace (``chrome_trace.schema.json``) and
the query log's wide event (``wide_event.schema.json``) — are checked
by one stdlib interpreter of the JSON Schema keywords those two files
use (:func:`validate_json`); only the Prometheus text grammar has a
bespoke checker.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _valid_label_name,
)
from repro.obs.spans import INSTANT, NullTracer, SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "validate_chrome_trace",
    "validate_json",
    "validate_prometheus_text",
    "write_chrome_trace",
]

PID = 1  # one process; lanes are tids


def _lane_of(ring_lane: str, record: SpanRecord) -> str:
    return record[1] if record[1] is not None else ring_lane


def chrome_trace(
    records: list[tuple[str, SpanRecord]],
    epoch_ns: int,
    n_dropped: int,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Render ``(lane, record)`` pairs as a trace-event JSON object.

    Timestamps are relative to ``epoch_ns``; ``n_dropped`` is reported
    as ``otherData.dropped_spans``.
    """

    # Stable lane numbering: "MainThread" (or "main") first, then the
    # rest alphabetically, so the root query lane tops the viewer.
    lane_names = sorted(
        {_lane_of(t, r) for t, r in records},
        key=lambda n: (n not in ("MainThread", "main"), n),
    )
    lane_ids = {name: i for i, name in enumerate(lane_names)}

    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for name, tid in lane_ids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID,
                "tid": tid,
                "args": {"name": name},
            }
        )

    for ring_lane, rec in records:
        name, _, t0_ns, dur_ns, _depth, _self_ns, args = rec
        tid = lane_ids[_lane_of(ring_lane, rec)]
        ts_us = (t0_ns - epoch_ns) / 1000.0
        if dur_ns == INSTANT:
            event: dict[str, Any] = {
                "name": name,
                "cat": "repro",
                "ph": "i",
                "ts": ts_us,
                "pid": PID,
                "tid": tid,
                "s": "t",  # thread-scoped instant
            }
        else:
            event = {
                "name": name,
                "cat": "repro",
                "ph": "X",
                "ts": ts_us,
                "dur": dur_ns / 1000.0,
                "pid": PID,
                "tid": tid,
            }
        if args:
            event["args"] = {k: _jsonable(v) for k, v in args.items()}
        events.append(event)

    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "lanes": lane_names,
            "dropped_spans": n_dropped,
        },
    }
    if metadata:
        doc["otherData"].update(
            {k: _jsonable(v) for k, v in metadata.items()}
        )
    return doc


def write_chrome_trace(
    tracer: Tracer | NullTracer,
    path: str,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    doc = chrome_trace(
        list(tracer.records()), tracer.epoch_ns, tracer.n_dropped, metadata
    )
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


# -- JSON Schema (stdlib subset) ----------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _is_type(value: Any, name: str) -> bool:
    if isinstance(value, bool) and name in ("integer", "number"):
        return False
    return isinstance(value, _TYPES[name])


def _validate(value: Any, schema: dict, path: str,
              problems: list[str]) -> None:
    types = schema.get("type")
    if types is not None and not any(
        _is_type(value, name)
        for name in (types if isinstance(types, list) else [types])
    ):
        problems.append(
            f"{path}: expected {types}, got {type(value).__name__}"
        )
        return
    if "const" in schema and value != schema["const"]:
        problems.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        problems.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if (
        "minimum" in schema and _is_type(value, "number")
        and value < schema["minimum"]
    ):
        problems.append(
            f"{path}: {value!r} is below the minimum {schema['minimum']}"
        )
    for sub in schema.get("allOf", ()):
        _validate(value, sub, path, problems)
    if "if" in schema and not validate_json(value, schema["if"]):
        _validate(value, schema.get("then", {}), path, problems)
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                problems.append(f"{path}: missing required key {name!r}")
        props = schema.get("properties", {})
        for name, sub in props.items():
            if name in value:
                _validate(value[name], sub, f"{path}.{name}", problems)
        if schema.get("additionalProperties") is False:
            for name in value:
                if name not in props:
                    problems.append(f"{path}: unexpected key {name!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            problems.append(
                f"{path}: expected at least {schema['minItems']} item(s), "
                f"got {len(value)}"
            )
        items = schema.get("items")
        if items:
            for i, element in enumerate(value):
                _validate(element, items, f"{path}[{i}]", problems)


@functools.lru_cache(maxsize=None)
def load_schema(filename: str) -> dict:
    """One of the checked-in schemas next to this module."""
    with open(os.path.join(os.path.dirname(__file__), filename)) as fh:
        return json.load(fh)


def validate_json(value: Any, schema: dict) -> list[str]:
    """Problems (empty = valid) of ``value`` against a JSON Schema.

    The schemas are standard JSON Schema so external tooling can use
    them; this interpreter implements the keywords they use — ``type``,
    ``required``, ``properties``, ``additionalProperties``, ``items``,
    ``minItems``, ``const``, ``enum``, ``minimum``, ``allOf`` and
    ``if``/``then`` — keeping CI dependency-free.
    """
    problems: list[str] = []
    _validate(value, schema, "$", problems)
    return problems


def validate_chrome_trace(doc: Any) -> list[str]:
    """Check a parsed export against ``chrome_trace.schema.json``.

    An empty list means the document loads cleanly in
    ``chrome://tracing``.
    """
    return validate_json(doc, load_schema("chrome_trace.schema.json"))


# -- Prometheus text exposition ------------------------------------------------


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _escape_label_value(value: str) -> str:
    """Backslash, double-quote and newline escaping (text format)."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(
    labelset: tuple[tuple[str, str], ...],
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    """Render a label set (plus e.g. ``le``), sorted by label name.

    Sorted rendering is part of the contract:
    :func:`validate_prometheus_text` rejects unsorted label sets, so
    the exporter never relies on insertion order.
    """
    items = sorted((*labelset, *extra))
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in items
    )
    return "{" + inner + "}"


def _family_series(m):
    """The samples one family renders: parent first, then children.

    A parent that only ever served as a ``labels()`` factory (no
    unlabeled updates) is skipped, so a purely-labeled family does not
    emit a spurious unlabeled zero sample.
    """
    children = m.children()
    series = []
    if not children or _touched(m):
        series.append(m)
    series.extend(children)
    return series


def _touched(m) -> bool:
    if isinstance(m, Histogram):
        return m.count > 0
    return bool(m.value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Text exposition format 0.0.4 of every registered instrument.

    Labeled children render as additional samples of their parent's
    metric family — one ``TYPE`` line, one sample line per label set,
    label values escaped per the text-format rules.
    """
    lines: list[str] = []
    for m in registry.instruments():
        if isinstance(m, Counter):
            name = _prom_name(m.name) + "_total"
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} counter")
            for inst in _family_series(m):
                lines.append(
                    f"{name}{_label_str(inst.labelset)} {inst.value}"
                )
        elif isinstance(m, Gauge):
            name = _prom_name(m.name)
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} gauge")
            for inst in _family_series(m):
                lines.append(
                    f"{name}{_label_str(inst.labelset)} "
                    f"{_fmt(inst.value)}"
                )
        elif isinstance(m, Histogram):
            name = _prom_name(m.name)
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} histogram")
            for inst in _family_series(m):
                # One locked snapshot: reading the fields piecemeal
                # while the query thread observes can emit a finite
                # bucket above +Inf, which a scraper rejects as
                # non-monotonic.
                bucket_counts, total_sum, total_count = inst.snapshot()
                cumulative = 0
                for bound, count in zip(inst.bounds, bucket_counts):
                    cumulative += count
                    le = _label_str(
                        inst.labelset, (("le", _fmt(bound)),)
                    )
                    lines.append(f"{name}_bucket{le} {cumulative}")
                le = _label_str(inst.labelset, (("le", "+Inf"),))
                lines.append(
                    f"{name}_bucket{le} "
                    f"{cumulative + bucket_counts[-1]}"
                )
                ls = _label_str(inst.labelset)
                lines.append(f"{name}_sum{ls} {_fmt(total_sum)}")
                lines.append(f"{name}_count{ls} {total_count}")
    return "\n".join(lines) + "\n"


def _parse_label_pairs(raw: str) -> tuple[list[tuple[str, str]], str]:
    """Scan the inside of a ``{...}`` label block.

    Returns ``(pairs, error)`` — error ``""`` on success.  Handles the
    three text-format escapes in values (``\\\\``, ``\\"``, ``\\n``)
    and rejects any other escape, unterminated quotes, and malformed
    separators.
    """
    pairs: list[tuple[str, str]] = []
    i, n = 0, len(raw)
    while i < n:
        j = i
        while j < n and raw[j] not in '=,"{}':
            j += 1
        name = raw[i:j]
        if j >= n or raw[j] != "=":
            return pairs, f"expected '=' after label name {name!r}"
        if not _valid_label_name(name):
            return pairs, f"bad label name {name!r}"
        j += 1
        if j >= n or raw[j] != '"':
            return pairs, f"label {name!r}: value must be quoted"
        j += 1
        value_chars: list[str] = []
        while j < n and raw[j] != '"':
            ch = raw[j]
            if ch == "\\":
                if j + 1 >= n:
                    return pairs, f"label {name!r}: dangling escape"
                esc = raw[j + 1]
                if esc == "\\":
                    value_chars.append("\\")
                elif esc == '"':
                    value_chars.append('"')
                elif esc == "n":
                    value_chars.append("\n")
                else:
                    return pairs, (
                        f"label {name!r}: invalid escape \\{esc}"
                    )
                j += 2
            else:
                value_chars.append(ch)
                j += 1
        if j >= n:
            return pairs, f"label {name!r}: unterminated value"
        pairs.append((name, "".join(value_chars)))
        j += 1  # closing quote
        if j < n:
            if raw[j] != ",":
                return pairs, f"expected ',' after label {name!r}"
            j += 1
            if j >= n:
                return pairs, "trailing comma in label set"
        i = j
    return pairs, ""


def validate_prometheus_text(text: str) -> list[str]:
    """Check an exposition against the 0.0.4 text format.

    Validates the structural rules a Prometheus scraper enforces:
    sample-line shape, metric-name syntax, label syntax (escaped
    values, no duplicate names, sorted order — the exporter's
    rendering contract), ``TYPE`` before samples, per-series histogram
    bucket monotonicity, a ``+Inf`` bucket matching ``_count``, and a
    trailing newline.  Returns a list of problems (empty =
    scrapeable), mirroring :func:`validate_chrome_trace`.
    """
    problems: list[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    typed: dict[str, str] = {}
    # Histogram series are keyed by (family, labels-without-le) so a
    # labeled family validates monotonicity per label set, not across
    # interleaved series.
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE"):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {ln}: malformed TYPE line")
                continue
            _, _, name, mtype = parts
            if mtype not in ("counter", "gauge", "histogram",
                            "summary", "untyped"):
                problems.append(
                    f"line {ln}: unknown metric type {mtype!r}"
                )
            typed[name] = mtype
            continue
        if line.startswith("#"):
            continue
        # Sample line: name[{labels}] value
        head, _, value_str = line.rpartition(" ")
        if not head:
            problems.append(f"line {ln}: missing value")
            continue
        name, brace, labels = head.partition("{")
        if not _valid_metric_name(name):
            problems.append(f"line {ln}: bad metric name {name!r}")
            continue
        pairs: list[tuple[str, str]] = []
        if brace:
            if not labels.endswith("}"):
                problems.append(f"line {ln}: unterminated label set")
                continue
            pairs, err = _parse_label_pairs(labels[:-1])
            if err:
                problems.append(f"line {ln}: {err}")
                continue
            names = [k for k, _ in pairs]
            if len(set(names)) != len(names):
                problems.append(
                    f"line {ln}: duplicate label name in {names}"
                )
                continue
            if names != sorted(names):
                problems.append(
                    f"line {ln}: unsorted label set {names}"
                )
                continue
        try:
            value = float(value_str)
        except ValueError:
            problems.append(
                f"line {ln}: non-numeric value {value_str!r}"
            )
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if base not in typed and name not in typed:
            problems.append(
                f"line {ln}: sample {name!r} precedes its TYPE line"
            )
        rest = tuple(p for p in pairs if p[0] != "le")
        if name.endswith("_bucket"):
            le_pairs = [v for k, v in pairs if k == "le"]
            if not le_pairs:
                problems.append(
                    f"line {ln}: histogram bucket without 'le' label"
                )
                continue
            le_str = le_pairs[0]
            try:
                le = (
                    float("inf") if le_str == "+Inf" else float(le_str)
                )
            except ValueError:
                problems.append(
                    f"line {ln}: non-numeric le {le_str!r}"
                )
                continue
            buckets.setdefault((base, rest), []).append((le, value))
        elif name.endswith("_count"):
            counts[(base, rest)] = value
    for (base, rest), entries in buckets.items():
        if typed.get(base) != "histogram":
            continue
        where = base + _label_str(rest)
        prev = -float("inf")
        prev_le = None
        for le, value in entries:
            if prev_le is not None and le <= prev_le:
                problems.append(
                    f"{where}: bucket le={le} out of order"
                )
            if value < prev:
                problems.append(
                    f"{where}: non-monotonic bucket at le={le} "
                    f"({value} < {prev})"
                )
            prev, prev_le = value, le
        if not entries or entries[-1][0] != float("inf"):
            problems.append(f"{where}: missing +Inf bucket")
        elif (base, rest) in counts and \
                entries[-1][1] != counts[(base, rest)]:
            problems.append(
                f"{where}: +Inf bucket {entries[-1][1]} != "
                f"_count {counts[(base, rest)]}"
            )
    return problems


def _valid_metric_name(name: str) -> bool:
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        return False
    return all(ch.isalnum() or ch in "_:" for ch in name)


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
