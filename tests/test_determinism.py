"""Determinism and fault recovery, checked by running the queries.

One child process runs every statement — the 22 TPC-H queries at SF
0.01 and the 24 ``bench/sql_adhoc.sql`` statements (rendered at seed
1) at SF 0.002 — on four paths (host monolithic, morsel spans inline,
morsel spans on a two-worker process pool, the device simulator), once
fault-free and once per chaos seed in :data:`CHAOS_SEEDS`.  Its report
holds, per statement and leg: the result columns' bytes, the query
record of ``test_trace_invariants`` and its charged fault stall, the
device meters, the fault injector's summary and *raw* event log (in
the order the events were recorded), and the degraded flag the run
left.

This is the repo's one fault-recovery gate: a recoverable fault (page
retry, latency spike, channel stall, worker crash, device fault and
its host fallback) must leave every result bit-identical to the
host's.  The loud failure of an unrecoverable one is
``test_faults.py::test_unrecoverable_fault_fails_every_path``'s.

The test runs that child twice, once under ``PYTHONHASHSEED=0`` and
once under ``=1``, and the two reports must be equal bit for bit.  A
charge made in set order shows up here as a difference, an unpicklable
value on the process boundary as an error.  The two children also run
the legs in opposite orders (fault-free first, chaos first), so state
one leg leaves behind in the worker pool or in the module globals
shows up as a difference too.  Within one report, every path must
return the host's columns, and the pool must report the faults inline
spans see, each once, with the same counters and stall.

So that it cannot pass vacuously, the child reports ``hash("aquoman")``
(the two must differ: the hash seed really varied), every path with a
fault site must record fault events under every chaos seed, some
device runs must fall back to the host, and after each statement the
child checks that the ambient fault injector and global tracer are
still the ones it installed.  Any exception fails the run.

``python tests/test_determinism.py chaos-first`` prints one child's
report as JSON.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_procpool import CHAOS
from test_trace_invariants import query_record

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine, MorselConfig, procpool
from repro.faults.injector import (
    FaultInjector,
    get_fault_injector,
    set_fault_injector,
)
from repro.faults.plan import FaultPlan
from repro.obs import Tracer, get_tracer, set_global_tracer
from repro.obs.context import clear_degraded, get_degraded
from repro.perf.trace import QueryTrace
from repro.sqlir import plan_sql

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import SQL_FILE, render_sql  # noqa: E402

sys.path.remove(str(ROOT / "bench"))

pytestmark = pytest.mark.skipif(
    not procpool.process_backend_available(),
    reason="no fork start method on this platform",
)

HASH_SEEDS = ("0", "1")
ORDERS = ("clean-first", "chaos-first")
PATHS = ("host", "serial", "process", "device")
SEED, TPCH_SF, ADHOC_SF = 1, 0.01, 0.002
# Fault seeds 0-4 plus 11; fault placement is a pure function of
# (seed, site), so each seed is a different set of faulted sites.
CHAOS_SEEDS = (0, 1, 2, 3, 4, 11)
# leg name -> fault seed (None: no injector installed)
LEGS = {"clean": None} | {f"chaos{seed}": seed for seed in CHAOS_SEEDS}


# -- the child ---------------------------------------------------------------


def _statements() -> dict:
    """``{name: (catalog, plan)}`` for the 22 + 24 statements."""
    tpch_db = tpch.generate(TPCH_SF, SEED)
    adhoc_db = tpch.generate(ADHOC_SF, SEED)
    out = {
        f"q{n:02d}": (tpch_db, tpch.query(n))
        for n in sorted(tpch.ALL_QUERIES)
    }
    for name, sql in render_sql(SQL_FILE.read_text(), SEED).items():
        out[name] = (adhoc_db, plan_sql(sql, adhoc_db))
    return out


def _run(db, plan, name: str, path: str) -> dict:
    meters = None
    if path == "device":
        config = DeviceConfig(scale_ratio=1000.0 / db.scale_factor)
        result = AquomanSimulator(db, config).run(plan, query=name)
        relation, trace = result.relation, result.trace
        meters = dataclasses.asdict(result.device.meters)
    else:
        trace = QueryTrace(query=name, scale_factor=db.scale_factor)
        morsels = None if path == "host" else MorselConfig(
            parallel=True,
            morsel_rows=8192,
            n_workers=2 if path == "process" else 1,
            worker_backend=path,
        )
        relation = Engine(db, trace, morsels=morsels).execute_relation(plan)
    columns = {}
    for column in relation.names:
        values = relation.column(column)
        columns[column] = [
            values.kind.name, values.scale, str(values.values.dtype),
            hashlib.sha1(values.values.tobytes()).hexdigest(),
        ]
    return {
        "columns": columns,
        "record": query_record(trace),
        "fault_stall_s": trace.fault_stall_s,
        "meters": meters,
    }


def child_report(order: str) -> dict:
    """Every statement on every path and leg, in ``order``."""
    statements = _statements()
    legs = list(LEGS.items())
    if order == "chaos-first":
        legs.reverse()
    tracer = Tracer()
    set_global_tracer(tracer)
    runs = {}
    for leg, seed in legs:
        for path in PATHS:
            for name, (db, plan) in statements.items():
                injector = None
                if seed is not None:
                    injector = FaultInjector(FaultPlan(seed, CHAOS))
                set_fault_injector(injector)
                clear_degraded()
                installed = get_fault_injector()
                run = _run(db, plan, name, path)
                # Ambient state is swapped only where it is installed.
                assert get_fault_injector() is installed, (leg, path, name)
                assert get_tracer() is tracer, (leg, path, name)
                set_fault_injector(None)
                run["events"] = [] if injector is None else injector.events
                run["faults"] = None if injector is None else (
                    injector.summary()
                )
                run["degraded"] = get_degraded()
                runs[f"{leg}/{path}/{name}"] = run
    clear_degraded()
    set_global_tracer(None)
    return {"hash": hash("aquoman"), "runs": runs}


# -- the test ----------------------------------------------------------------


def _spawn(hash_seed: str, order: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, __file__, order], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def reports():
    children = [
        _spawn(seed, order) for seed, order in zip(HASH_SEEDS, ORDERS)
    ]
    out = []
    for child in children:
        stdout, stderr = child.communicate(timeout=600)
        assert child.returncode == 0, stderr
        out.append(json.loads(stdout))
    return out


def test_hash_seeds_really_differ(reports):
    assert reports[0]["hash"] != reports[1]["hash"]


def test_matrix_is_complete(reports):
    for report in reports:
        assert len(report["runs"]) == len(LEGS) * len(PATHS) * (22 + 24)


def test_every_chaos_leg_injects(reports):
    """The monolithic host engine reads no flash pages and runs no
    workers, so it has no fault site: its chaos runs check only that an
    installed injector changes nothing.  Every other path must fault
    under every chaos seed, and some device run must charge a stall."""
    runs = reports[0]["runs"]
    for seed in CHAOS_SEEDS:
        for path in ("serial", "process", "device"):
            events = [
                run["events"] for key, run in runs.items()
                if key.startswith(f"chaos{seed}/{path}/")
            ]
            assert any(events), f"chaos{seed} on {path} injected nothing"
        stalled = [
            key for key, run in runs.items()
            if key.startswith(f"chaos{seed}/device/")
            and run["events"] and run["meters"]["fault_stall_s"] > 0.0
        ]
        assert stalled, f"chaos{seed} charged no device stall"


def test_device_faults_fall_back_to_the_host(reports):
    """A device fault re-runs its subtree on the host, once per fault,
    and says so in the degraded flag; a fault-free run is not
    degraded.  Some device runs must really fall back."""
    fell_back = []
    for key, run in reports[0]["runs"].items():
        if run["faults"] is None:
            assert run["degraded"] is None, key
            continue
        fallbacks = run["faults"]["host_fallbacks"]
        assert fallbacks == run["faults"]["device_faults"], key
        if fallbacks:
            fell_back.append(key)
            assert run["degraded"]["reason"] == (
                "host fallback after device fault"
            ), key
    assert fell_back, "no device fault fell back to the host"
    assert all(key.split("/")[1] == "device" for key in fell_back)


def test_device_faults_strike_statements_apart(reports):
    """A device-fault site names its statement, so one seed does not
    fault every statement alike: under each chaos seed some offloaded
    statements fall back to the host and some do not, and all of them
    return the host's columns."""
    runs = reports[0]["runs"]
    offloaded = [
        key.split("/")[2] for key, run in runs.items()
        if key.startswith("clean/device/") and run["meters"]["tasks_run"]
    ]
    assert offloaded
    for seed in CHAOS_SEEDS:
        fell_back = []
        for name in offloaded:
            run = runs[f"chaos{seed}/device/{name}"]
            if run["faults"]["host_fallbacks"]:
                fell_back.append(name)
            host = runs[f"chaos{seed}/host/{name}"]
            assert run["columns"] == host["columns"], (seed, name)
        assert 0 < len(fell_back) < len(offloaded), (seed, fell_back)


def test_paths_agree(reports):
    """Every path returns the host's columns, and the pool reports the
    faults inline spans see, each once and with the same counters and
    charged stall: placement is pure ``(seed, site)``, only the order
    of absorbed worker events may differ."""
    runs = reports[0]["runs"]
    for key, run in runs.items():
        leg, path, name = key.split("/")
        assert run["columns"] == runs[f"{leg}/host/{name}"]["columns"], key
        if path == "process":
            inline = runs[f"{leg}/serial/{name}"]
            assert sorted(run["events"]) == sorted(inline["events"]), key
            assert run["faults"] == inline["faults"], key
            assert run["fault_stall_s"] == inline["fault_stall_s"], key


def test_reports_equal_across_hash_seeds(reports):
    first, second = (report["runs"] for report in reports)
    assert first.keys() == second.keys()
    moved = [key for key in first if first[key] != second[key]]
    assert not moved, f"{len(moved)} runs moved with the hash seed: {moved}"


if __name__ == "__main__":
    json.dump(child_report(sys.argv[1]), sys.stdout)
