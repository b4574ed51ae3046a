"""Shared benchmark fixtures.

Every paper figure/table is regenerated from the same session-scoped
trace collection: all 22 queries run on the pure-host engine and on
the AQUOMAN simulator (40 GB and 16 GB device DRAM) at SF-0.01, scaled
to the paper's SF-1000 by the trace-scaling machinery.
"""

import pytest

from repro import tpch
from repro.perf.tpch_eval import collect_traces

DATA_SF = 0.01
TARGET_SF = 1000.0

@pytest.fixture(scope="session")
def db():
    return tpch.generate(DATA_SF)


@pytest.fixture(scope="session")
def evaluation(db):
    return collect_traces(db, target_sf=TARGET_SF)


@pytest.fixture(scope="session")
def report(evaluation):
    return evaluation.report(TARGET_SF)


def print_table(title, header, rows):
    """Render one paper table/figure as text in the benchmark output."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
