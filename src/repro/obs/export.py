"""The Chrome trace-event exporter and the JSON-schema validator.

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON Array
with metadata" flavour: a ``traceEvents`` list of complete (``"X"``),
instant (``"i"``) and metadata (``"M"``) events.  Every lane — the
recording thread's, each adopted ``proc-worker-N`` and the synthetic
device-stage lanes — becomes a ``tid`` row named by a ``thread_name``
metadata event, so morsel workers and device stages render as separate
swimlanes.  :func:`chrome_trace` renders any list of ``(lane, record)``
pairs; :func:`write_chrome_trace` renders a whole tracer's.

Validators return a list of problems (empty = valid) instead of
raising, so callers can report all of them.  Both documents the
package writes — the Chrome trace (``chrome_trace.schema.json``) and
the query log's wide event (``wide_event.schema.json``) — are checked
by one stdlib interpreter of the JSON Schema keywords those two files
use (:func:`validate_json`).
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any

from repro.obs.spans import INSTANT, NullTracer, SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "validate_json",
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
