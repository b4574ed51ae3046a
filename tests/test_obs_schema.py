"""The one JSON-schema checker behind both exported documents.

``validate_chrome_trace`` and ``validate_wide_event`` are thin calls
into the stdlib interpreter in :mod:`repro.obs.export`.  The keyword
tests pin each keyword the two schemas use with one document it
accepts and one it rejects.  The parity corpus was written against the
hand-coded Chrome check the schema replaced: every document that check
flagged must still be flagged, and every export the program writes
must still pass.
"""

import json

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.engine.procpool import process_backend_available
from repro.obs import (
    QueryLog,
    Tracer,
    set_query_log,
    validate_chrome_trace,
    validate_wide_event,
    write_chrome_trace,
)
from repro.obs.export import validate_json

COMPLETE = {"ph": "X", "name": "x", "ts": 0, "dur": 1, "pid": 1, "tid": 0}
INSTANT = {"ph": "i", "name": "x", "ts": 0, "pid": 1, "tid": 0}
META = {"ph": "M", "name": "thread_name", "pid": 1}
BY_PHASE = {"X": COMPLETE, "i": INSTANT, "M": META}


def doc_of(*events):
    return {"traceEvents": list(events)}


def without(event, key):
    return {k: v for k, v in event.items() if k != key}


PARITY_CORPUS = {
    "top level is a list": [],
    "top level is a string": "trace",
    "no traceEvents": {},
    "traceEvents is a string": {"traceEvents": "nope"},
    "traceEvents is empty": doc_of(),
    "event is not an object": doc_of(1),
    "unknown phase": doc_of(dict(COMPLETE, ph="B")),
    "no phase": doc_of(without(COMPLETE, "ph")),
    **{
        f"ph={ph} without {key}": doc_of(without(event, key))
        for ph, event in BY_PHASE.items()
        for key in event
        if key != "ph"
    },
    "non-numeric ts": doc_of(dict(COMPLETE, ts="0")),
    "non-numeric dur": doc_of(dict(COMPLETE, dur="1")),
    "negative dur": doc_of(dict(COMPLETE, dur=-5)),
    "non-string name": doc_of(dict(COMPLETE, name=3)),
}


@pytest.mark.parametrize("name", sorted(PARITY_CORPUS))
def test_parity_corpus_is_flagged(name):
    assert validate_chrome_trace(PARITY_CORPUS[name]) != []


def test_minimal_document_of_each_phase_passes():
    assert validate_chrome_trace(doc_of(COMPLETE, INSTANT, META)) == []


# Each keyword: (schema, accepted, rejected, message substring).
KEYWORDS = {
    "type": ({"type": "integer"}, 3, True, "expected integer, got bool"),
    "required": ({"required": ["a"]}, {"a": 1}, {}, "required key 'a'"),
    "properties": (
        {"properties": {"a": {"type": "string"}}}, {"a": "s"}, {"a": 1},
        "$.a: expected string",
    ),
    "additionalProperties": (
        {"properties": {}, "additionalProperties": False}, {}, {"b": 1},
        "unexpected key 'b'",
    ),
    "items": ({"items": {"type": "number"}}, [1, 2.5], [1, "x"], "$[1]"),
    "minItems": ({"minItems": 1}, [0], [], "at least 1 item"),
    "const": ({"const": "X"}, "X", "i", "expected 'X'"),
    "enum": ({"enum": ["X", "i"]}, "i", "B", "not one of"),
    "minimum": ({"minimum": 0}, 0, -0.5, "below the minimum 0"),
    "allOf": (
        {"allOf": [{"type": "number"}, {"minimum": 1}]}, 2, 0,
        "below the minimum 1",
    ),
    "if/then": (
        {"if": {"const": 1}, "then": {"type": "integer"}, "enum": [1, 2.5]},
        2.5, 1.0, "expected integer, got float",
    ),
}


@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
def test_keyword_accepts_and_rejects(keyword):
    schema, good, bad, message = KEYWORDS[keyword]
    assert validate_json(good, schema) == []
    problems = validate_json(bad, schema)
    assert any(message in p for p in problems), problems


def test_if_without_match_skips_then():
    schema = {"if": {"required": ["ph"]}, "then": {"required": ["ts"]}}
    assert validate_json({}, schema) == []
    assert validate_json({"ph": "X"}, schema) == [
        "$: missing required key 'ts'"
    ]


def _record(small_db, number, path, tmp_path):
    """Run one query with a query log; return (trace doc, wide events)."""
    tracer = Tracer()
    log = QueryLog(str(tmp_path / "run.jsonl"))
    set_query_log(log)
    try:
        plan = tpch.query(number)
        if path == "device":
            AquomanSimulator(
                small_db, DeviceConfig(scale_ratio=1e5), tracer=tracer
            ).run(plan, query=f"q{number:02d}")
        else:
            morsels = MorselConfig(
                parallel=path == "process", morsel_rows=8192, n_workers=2
            )
            Engine(small_db, tracer=tracer, morsels=morsels) \
                .execute_relation(plan)
    finally:
        set_query_log(None)
        log.close()
    doc = write_chrome_trace(tracer, str(tmp_path / "t.json"))
    events = [json.loads(line) for line in open(log.path)]
    return doc, events


@pytest.mark.parametrize("path", ["host", "device", "process"])
@pytest.mark.parametrize("number", [1, 6])
def test_real_exports_pass_both_checkers(small_db, tmp_path, number, path):
    if path == "process" and not process_backend_available():
        pytest.skip("no fork start method: no process lanes to export")
    doc, events = _record(small_db, number, path, tmp_path)
    assert validate_chrome_trace(doc) == []
    assert len(events) == 1
    assert validate_wide_event(events[0]) == []
    if path == "process":
        assert any(
            lane.startswith("proc-worker")
            for lane in doc["otherData"]["lanes"]
        )
