"""Golden span shapes: what the tracer records and exports, pinned.

For Q6 and Q18 at SF 0.01 on three execution paths — the serial
morsel stream, the process pool with two workers, and the AQUOMAN
simulator — the golden file records the sorted lanes of the Chrome
export, per lane the sequence of ``(name, depth, sorted arg keys)`` in
``Tracer.records()`` order, and the set of critical-path buckets.  It
also holds the full Chrome export of a fixed synthetic record set,
which must come back byte-identical.  The file was recorded before the
tracer lost its per-thread machinery, so a refactor that renames a
span, moves it to another lane, changes its nesting or drops an
argument cannot pass.

``python tests/test_obs_golden.py`` rewrites the golden file from
whatever ``repro`` is on ``PYTHONPATH``; only run it against a commit
whose spans are trusted.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.engine.procpool import process_backend_available
from repro.obs import Tracer, analyze_records, chrome_trace

GOLDEN = Path(__file__).parent / "fixtures" / "obs_golden.json"
SF, SIMULATED_SF = 0.01, 1000.0
QUERIES = (6, 18)
PATHS = ("stream_serial", "process2", "device")
ROOT = "golden.run"

# (lane, record) pairs, record = (name, lane-or-None, t0_ns, dur_ns,
# depth, self_ns, args): an own lane, a device-stage override, an
# instant and an adopted worker lane.
SYNTHETIC = [
    ("MainThread", ("engine.scan", None, 1_100, 300, 1, 300,
                    {"node": 3, "rows_out": 10})),
    ("MainThread", ("device.filter", "device.row_selector", 1_450, 50,
                    1, 50, {"node": 2, "ids": (1, 2)})),
    ("MainThread", ("fault", None, 1_600, -1, 1, 0, {"site": "page"})),
    ("MainThread", ("engine.query", None, 1_000, 1_000, 0, 650,
                    {"qid": 7})),
    ("proc-worker-0", ("morsel.span", None, 1_520, 400, 0, 400, None)),
]
SYNTHETIC_EPOCH_NS = 1_000
SYNTHETIC_DROPPED = 3


def run_path(db, number: int, path: str) -> Tracer:
    tracer = Tracer()
    plan = tpch.query(number)
    with tracer.span(ROOT):
        if path == "device":
            config = DeviceConfig(scale_ratio=SIMULATED_SF / SF)
            AquomanSimulator(db, config, tracer=tracer).run(
                plan, query=f"q{number:02d}"
            )
        else:
            morsels = MorselConfig(
                parallel=True, morsel_rows=8192,
                n_workers=2 if path == "process2" else 1,
                worker_backend="process" if path == "process2" else "serial",
            )
            Engine(db, tracer=tracer, morsels=morsels).execute_relation(plan)
    return tracer


def shape(tracer: Tracer) -> dict:
    records = list(tracer.records())
    doc = chrome_trace(records, tracer.epoch_ns, tracer.n_dropped)
    sequences: dict[str, list] = {}
    for lane, rec in records:
        name, override, _t0, _dur, depth, _self, args = rec
        sequences.setdefault(override or lane, []).append(
            [name, depth, sorted(args or ())]
        )
    return {
        "lanes": sorted(doc["otherData"]["lanes"]),
        "sequences": sequences,
        "buckets": sorted(
            analyze_records(records, root_name=ROOT).attribution
        ),
    }


def synthetic_export() -> str:
    doc = chrome_trace(
        SYNTHETIC, SYNTHETIC_EPOCH_NS, SYNTHETIC_DROPPED,
        metadata={"query": "synthetic"},
    )
    return json.dumps(doc, sort_keys=True)


def record_golden(db) -> dict:
    runs = {
        f"q{n:02d}/{path}": shape(run_path(db, n, path))
        for n in QUERIES
        for path in PATHS
    }
    return {"runs": runs, "synthetic": synthetic_export()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_synthetic_export_is_byte_identical(golden):
    assert synthetic_export() == golden["synthetic"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("number", QUERIES)
def test_span_shapes_match(small_db, golden, number, path):
    if path == "process2" and not process_backend_available():
        pytest.skip("no fork start method: the pool would run inline")
    got = shape(run_path(small_db, number, path))
    assert got == golden["runs"][f"q{number:02d}/{path}"]


if __name__ == "__main__":
    data = record_golden(tpch.generate(SF))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(data['runs'])} runs)", file=sys.stderr)
