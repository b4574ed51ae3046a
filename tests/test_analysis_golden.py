"""Every static verdict, pinned: the analyzer's golden.

For the 22 TPC-H plans and the 24 ``bench/sql_adhoc.sql`` statements
(rendered at seed 1) the golden file records everything the static
layer says about a plan before a row moves: the full ``analyze_plan``
report (every AQ code, message and node locus, the suspend verdicts
with their ``[lo, hi]`` brackets, the merge verdicts), the compiler's
per-node offload decisions, and the static Table-Task listing with its
Row-Selector programs.  It was recorded at the commit *before*
``repro.analysis`` was folded onto one schema per plan, so a refactor
that changes a verdict, a message or a column scale cannot pass.

``python tests/test_analysis_golden.py`` rewrites the golden file from
whatever ``repro`` is on ``PYTHONPATH``; only run it against a commit
whose verdicts are trusted.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import tpch
from repro.analysis import analyze_plan
from repro.core import DeviceConfig
from repro.core.compiler import QueryCompiler
from repro.sqlir import plan_sql
from repro.sqlir.plan import assign_node_ids

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from workloads import SQL_FILE, render_sql  # noqa: E402

sys.path.remove(str(BENCH))

GOLDEN = Path(__file__).parent / "fixtures" / "analysis_golden.json"
SF, SEED, SIMULATED_SF = 0.01, 1, 1000.0

TPCH = {f"q{n:02d}": n for n in sorted(tpch.ALL_QUERIES)}
ADHOC = render_sql(SQL_FILE.read_text(), SEED)
NAMES = [*TPCH, *ADHOC]


def plan_of(db, name):
    if name in TPCH:
        return tpch.query(TPCH[name])
    return plan_sql(ADHOC[name], db)


def plan_record(db, name) -> dict:
    """What the static layer says about one plan, JSON-shaped."""
    plan = plan_of(db, name)
    config = DeviceConfig(scale_ratio=SIMULATED_SF / SF)
    report = analyze_plan(plan, db, device=config).to_json()
    compiler = QueryCompiler(db, scale_ratio=config.scale_ratio)
    decisions = {}
    for unit in compiler.compile(plan).flatten():
        for node in unit.plan.walk():
            decision = unit.decision(node)
            decisions[str(node.node_id)] = [
                decision.offloadable,
                decision.reason.value,
                decision.device_assisted,
            ]
    tasks = [
        [repr(t), repr(t.row_sel), repr(t.row_filter), t.nodes]
        for t in compiler.emit_table_tasks(plan, config)
    ]
    return {
        "n_nodes": assign_node_ids(plan),
        "report": report,
        "decisions": decisions,
        "tasks": tasks,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _canonical(record: dict) -> dict:
    """The record with its diagnostics in (code, node, message) order.

    The golden file lists a plan's AQ3xx findings post-order, as the PE
    pass walked when it was recorded; every pass now takes the IR's one
    pre-order walk, so two plans (q08, q14) list the same findings in
    node-id order.  Everything else, the other lists included, is held
    to the file's own order.
    """
    record["report"]["diagnostics"].sort(
        key=lambda d: (
            d["code"],
            -1 if d["node_id"] is None else d["node_id"],
            d["message"],
        )
    )
    return record


@pytest.mark.parametrize("name", NAMES)
def test_static_verdicts_match_golden(small_db, golden, name):
    # through JSON, so tuples and int keys compare as the file holds them
    got = json.loads(json.dumps(plan_record(small_db, name)))
    assert _canonical(got) == _canonical(golden[name])


def test_golden_covers_every_plan(golden):
    assert list(golden) == NAMES
    assert len(TPCH) == 22 and len(ADHOC) == 24


if __name__ == "__main__":
    db = tpch.generate(SF)
    GOLDEN.write_text(
        json.dumps({n: plan_record(db, n) for n in NAMES}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
