"""Concurrency & determinism static analysis over the runtime's own
source (``python -m repro lint``).

PR 2 made static verdicts the correctness gate for *plans*
(AQ1xx–AQ4xx); this package extends the same discipline to the
runtime's own code.  The guarantees the process pool and the fault
layer depend on — bit-identical recovery as a pure function of
``(seed, site)``, fork/pickle safety across the pool boundary,
deterministic lane attribution, ambient-state hygiene — are checked
from the AST, without importing or executing the code under analysis,
and emitted as stable ``AQ5xx`` diagnostics with ``file:line`` loci
in the same record, report and human/JSON formats as ``repro analyze``.

Three passes (see DESIGN.md §11 for the full code table), each a check
on the execution model we run — forked, single-threaded pool workers
that share nothing with the parent but what is pickled across:

- **boundary** (AQ510–AQ513): lambdas, closures and known-unpicklable
  captures crossing the ``ProcessPool`` dispatch boundary;
- **determinism** (AQ520–AQ523): unseeded RNGs, wall-clock reads,
  ``id()``-keyed decisions and set-iteration-order dependence in
  result-affecting paths;
- **ambient** (AQ530–AQ531): ambient tracer/injector installation and
  repatriation (``Tracer.adopt`` / ``FaultInjector.absorb``) outside
  the sanctioned points.

True negatives are justified in-line with ``# conc: safe — reason``,
the one suppression mechanism; the report counts the findings each
annotation suppressed.  ``AQ500`` (a configured root vanished) and
``AQ541`` (an annotation that suppresses nothing) keep the contract
itself honest.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.conccheck.ambient import run_ambient_pass
from repro.analysis.conccheck.boundary import run_boundary_pass
from repro.analysis.conccheck.config import (
    LintConfig,
    default_config,
    package_root,
    repo_root,
)
from repro.analysis.conccheck.determinism import run_determinism_pass
from repro.analysis.conccheck.model import Project
from repro.analysis.conccheck.report import (
    PASSES,
    ConccheckReport,
    lint_diag,
)
from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocus

__all__ = [
    "ConccheckReport",
    "LintConfig",
    "PASSES",
    "Project",
    "default_config",
    "lint_project",
    "lint_repo",
]


def lint_project(
    project: Project, config: LintConfig
) -> ConccheckReport:
    """Run the three passes over an already-loaded project."""
    t0 = time.perf_counter()
    report = ConccheckReport()
    report.n_files = len(project.modules)
    report.n_functions = len(project.functions)

    for missing in project.missing_roots(
        (*config.worker_roots, *config.result_roots,
         *config.sanctioned_installers,
         *config.sanctioned_repatriation)
    ):
        report.add(lint_diag(
            "AQ500",
            f"configured root {missing!r} not found: the concurrency "
            "contract in conccheck/config.py is out of date",
        ))

    worker_reachable = project.reachable_from(config.worker_roots)
    result_scope = worker_reachable | project.reachable_from(
        config.result_roots
    )
    report.n_worker_reachable = len(worker_reachable)

    findings = [
        *run_boundary_pass(project),
        *run_determinism_pass(
            project, result_scope,
            exempt_prefixes=config.determinism_exempt,
        ),
        *run_ambient_pass(
            project, worker_reachable,
            config.sanctioned_installers,
            config.sanctioned_repatriation,
        ),
    ]

    # A finding under a conc-safe annotation is suppressed and counted;
    # an annotation no finding sits under is itself reported.
    by_path = {mod.path: mod for mod in project.modules.values()}
    used: set[tuple[str, int]] = set()
    for finding in findings:
        locus = finding.source
        assert locus is not None  # lint_diag always sets it
        annotation = by_path[locus.path].safe_annotation(locus.line)
        if annotation is None:
            report.add(finding)
        else:
            report.suppressed.append(finding)
            used.add((locus.path, annotation))
    for mod in project.modules.values():
        for line, why in mod.safe_lines.items():
            if (mod.path, line) not in used:
                report.add(Diagnostic(
                    "AQ541",
                    Severity.WARNING,
                    f"`# conc: safe — {why}` suppresses no finding: "
                    "delete the annotation",
                    source=SourceLocus(mod.path, line),
                ))

    report.elapsed_s = time.perf_counter() - t0
    report.sort()
    return report


def lint_repo(config: LintConfig | None = None) -> ConccheckReport:
    """Lint the installed ``repro`` package sources."""
    root = package_root()
    project = Project.load_package(root)
    _relativize(project, root)
    return lint_project(project, config or default_config())


def _relativize(project: Project, package_dir: Path) -> None:
    """Rewrite stored paths repo-relative (``src/repro/...``) so
    reports are checkout-independent."""
    try:
        prefix = package_dir.relative_to(repo_root())
    except ValueError:  # package imported from outside the checkout
        prefix = Path("src/repro")
    for mod in project.modules.values():
        mod.path = str(
            prefix / Path(mod.path).relative_to(package_dir)
        )
    for info in project.functions.values():
        info.path = project.modules[info.module].path
