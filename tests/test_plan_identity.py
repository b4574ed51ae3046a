"""The SQL front end builds the same plans: fingerprints, pinned.

For the 22 TPC-H texts and the 24 ``bench/sql_adhoc.sql`` statements
rendered at seeds 1 and 5, the fixture records each plan's
:func:`repro.obs.plan_fingerprint` (a digest of every node's repr).  A
lexer, parser or planner change that moves any node, expression,
literal scale or join order fails here with the statement's name.

``python tests/test_plan_identity.py`` rewrites the fixture from
whatever ``repro`` is on ``PYTHONPATH``; only run it against a commit
whose plans are trusted.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import tpch
from repro.obs import plan_fingerprint
from repro.sqlir import plan_sql

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from workloads import SQL_FILE, render_sql  # noqa: E402

sys.path.remove(str(BENCH))

FIXTURE = Path(__file__).parent / "fixtures" / "plan_fingerprints.json"
SF, SEEDS = 0.001, (1, 5)


def statements() -> dict[str, str]:
    """``{name: sql}`` for every pinned statement."""
    texts = {f"q{n:02d}": tpch.TEXTS[n] for n in sorted(tpch.ALL_QUERIES)}
    for seed in SEEDS:
        for name, sql in render_sql(SQL_FILE.read_text(), seed).items():
            texts[f"{name}@{seed}"] = sql
    return texts


STATEMENTS = statements()


def fingerprints(db) -> dict[str, str]:
    return {
        name: plan_fingerprint(plan_sql(sql, db))
        for name, sql in STATEMENTS.items()
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_every_statement_is_pinned(pinned):
    assert sorted(pinned) == sorted(STATEMENTS)


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_plan_fingerprint_unchanged(tiny_db, pinned, name):
    assert plan_fingerprint(plan_sql(STATEMENTS[name], tiny_db)) == (
        pinned[name]
    )


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(fingerprints(tpch.generate(SF)), indent=1) + "\n"
    )
    print(f"wrote {FIXTURE}")
