"""Seeded-violation self-check (``python -m repro lint --selfcheck``).

A linter that silently stops finding anything is worse than no linter:
CI would keep passing while the checked surface quietly shrank.  This
module keeps conccheck honest the same way the chaos matrix keeps the
fault layer honest — by injecting known-bad input and asserting the
detector fires.  Each scenario is a tiny in-memory module seeded with
one violation per diagnostic code of one pass; the self-check runs the
real pipeline (:func:`~repro.analysis.conccheck.lint_project` over
:meth:`Project.from_sources`) and fails loudly if any expected code
goes undetected or an unexpected code appears.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.conccheck.config import LintConfig
from repro.analysis.conccheck.model import Project

__all__ = ["SCENARIOS", "Scenario", "run_selfcheck"]


@dataclass(frozen=True)
class Scenario:
    name: str                   # the pass the violations are seeded for
    sources: dict               # module name -> seeded source
    config: LintConfig
    expect: tuple[str, ...]     # codes that MUST be detected


_BOUNDARY_SRC = '''\
from multiprocessing import Process


def dispatch(pool, tracer, batches):
    def helper(batch):
        return batch
    pool.run([(lambda b: b, tracer, helper) for b in batches])


def spawn(runner):
    return Process(target=runner.run, args=("x",))
'''

_DETERMINISM_SRC = '''\
import random
import time


def merge(parts):
    order = list({p for p in parts})
    jitter = random.random()
    stamp = time.time()
    key = id(parts)
    return order, jitter, stamp, key
'''

_AMBIENT_SRC = '''\
def set_global_tracer(tracer):
    pass


def worker_entry(tracer, records):
    set_global_tracer(tracer)
    tracer_of_parent().adopt(records)


def tracer_of_parent():
    return None
'''


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="boundary",
        sources={"seed.boundary": _BOUNDARY_SRC},
        config=LintConfig(),
        expect=("AQ510", "AQ511", "AQ512", "AQ513"),
    ),
    Scenario(
        name="determinism",
        sources={"seed.det": _DETERMINISM_SRC},
        config=LintConfig(result_roots=("seed.det:merge",)),
        expect=("AQ520", "AQ521", "AQ522", "AQ523"),
    ),
    Scenario(
        name="ambient",
        sources={"seed.ambient": _AMBIENT_SRC},
        config=LintConfig(worker_roots=("seed.ambient:worker_entry",)),
        expect=("AQ530", "AQ531"),
    ),
)


def run_selfcheck() -> tuple[bool, list[str]]:
    """Run every seeded scenario; returns ``(ok, report_lines)``."""
    from repro.analysis.conccheck import lint_project

    ok = True
    lines: list[str] = []
    for scenario in SCENARIOS:
        project = Project.from_sources(scenario.sources)
        report = lint_project(project, scenario.config)
        found = {d.code for d in report.diagnostics}
        missed = [c for c in scenario.expect if c not in found]
        surprise = sorted(found - set(scenario.expect))
        if missed:
            ok = False
            lines.append(
                f"FAIL {scenario.name}: seeded violation(s) "
                f"{', '.join(missed)} went undetected"
            )
        elif surprise:
            ok = False
            lines.append(
                f"FAIL {scenario.name}: unexpected code(s) "
                f"{', '.join(surprise)} on seeded input"
            )
        else:
            lines.append(
                f"ok   {scenario.name}: "
                f"{', '.join(scenario.expect)} all detected"
            )
    lines.append(
        "selfcheck: PASS" if ok else "selfcheck: FAIL — the lint "
        "passes are no longer catching their seeded violations"
    )
    return ok, lines
