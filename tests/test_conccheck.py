"""The AQ5xx concurrency & determinism analyzer (``repro lint``).

Each pass is exercised on a violating and a clean fixture module
(``tests/fixtures/conccheck/``), the suppression machinery is covered
directly, and the end-to-end test asserts the repository itself is
clean under ``--strict`` — the same gate CI runs.
"""

import json
from pathlib import Path

from repro.analysis.conccheck import (
    PASSES,
    LintConfig,
    Project,
    lint_project,
    lint_repo,
)
from repro.analysis.conccheck.selfcheck import run_selfcheck

FIXTURES = Path(__file__).parent / "fixtures" / "conccheck"


def project_of(*names: str) -> Project:
    sources = {
        f"fix.{name}": (FIXTURES / f"{name}.py").read_text()
        for name in names
    }
    return Project.from_sources(sources)


def run_fixture(name: str, config: LintConfig):
    report = lint_project(project_of(name), config)
    return {d.code for d in report.diagnostics}, report


# -- pass 1: fork/pickle boundary ------------------------------------------


BOUNDARY = LintConfig()


def test_boundary_violation_detected():
    codes, report = run_fixture("boundary_violation", BOUNDARY)
    assert codes == {"AQ510", "AQ511", "AQ512", "AQ513"}
    assert all(
        d.source.line > 0 and d.source.symbol for d in report.diagnostics
    )


def test_boundary_clean_fixture_passes():
    codes, _ = run_fixture("boundary_clean", BOUNDARY)
    assert codes == set()


def test_boundary_call_results_do_not_flag_operands():
    # batch_opts(self.tracer): the call's *result* ships, not the
    # tracer operand — the real procpool dispatch idiom must be clean.
    project = Project.from_sources({
        "fix.ok": (
            "def batch_opts(tracer):\n"
            "    return {'trace': tracer is not None}\n"
            "\n"
            "def dispatch(pool, tracer, requests):\n"
            "    pool.run(requests, batch_opts(tracer))\n"
        ),
    })
    report = lint_project(project, BOUNDARY)
    assert report.diagnostics == []


# -- pass 2: determinism ----------------------------------------------------


def det_config(name: str) -> LintConfig:
    return LintConfig(result_roots=(f"fix.{name}:merge",))


def test_determinism_violation_detected():
    codes, _ = run_fixture(
        "determinism_violation", det_config("determinism_violation")
    )
    assert codes == {"AQ520", "AQ521", "AQ522", "AQ523"}


def test_determinism_clean_fixture_passes():
    # sorted(set) and membership tests are order-independent: clean
    codes, _ = run_fixture(
        "determinism_clean", det_config("determinism_clean")
    )
    assert codes == set()


def test_determinism_exempt_prefix():
    config = LintConfig(
        result_roots=("fix.determinism_violation:merge",),
        determinism_exempt=("fix.",),
    )
    codes, _ = run_fixture("determinism_violation", config)
    assert codes == set()


def test_determinism_ignores_unrooted_code():
    # same violations, but nothing roots the call graph there
    codes, _ = run_fixture("determinism_violation", LintConfig())
    assert codes == set()


# -- pass 3: ambient-state discipline --------------------------------------


def ambient_config(name: str) -> LintConfig:
    return LintConfig(worker_roots=(f"fix.{name}:worker_entry",))


def test_ambient_violation_detected():
    codes, _ = run_fixture(
        "ambient_violation", ambient_config("ambient_violation")
    )
    assert codes == {"AQ530", "AQ531"}


def test_ambient_clean_fixture_passes():
    codes, _ = run_fixture(
        "ambient_clean", ambient_config("ambient_clean")
    )
    assert codes == set()


def test_sanctioned_points_are_not_flagged():
    config = LintConfig(
        worker_roots=("fix.ambient_violation:worker_entry",),
        sanctioned_installers=("fix.ambient_violation:worker_entry",),
        sanctioned_repatriation=("fix.ambient_violation:worker_entry",),
    )
    codes, _ = run_fixture("ambient_violation", config)
    assert codes == set()


# -- suppression ------------------------------------------------------------


def _merge_with(comment_line: str) -> Project:
    return Project.from_sources({
        "fix.sup": (
            "def merge(parts):\n"
            f"{comment_line}"
            "    return id(parts)\n"
        ),
    })


SUP = LintConfig(result_roots=("fix.sup:merge",))


def test_conc_safe_suppresses_and_is_counted():
    project = _merge_with("    # conc: safe — fixture justification\n")
    report = lint_project(project, SUP)
    assert report.diagnostics == []
    # what is counted is the finding the annotation suppressed
    assert [d.code for d in report.suppressed] == ["AQ522"]
    assert report.suppressed[0].source.line == 3
    assert "1 conc-safe" in report.format()


def test_conc_safe_in_docstring_does_not_suppress():
    project = _merge_with(
        '    """Mentions # conc: safe without being a comment."""\n'
    )
    report = lint_project(project, SUP)
    assert [d.code for d in report.diagnostics] == ["AQ522"]
    assert report.suppressed == []


def test_annotation_that_suppresses_nothing_is_aq541():
    project = Project.from_sources({
        "fix.sup": (
            "def merge(parts):\n"
            "    # conc: safe — nothing here needs it\n"
            "    return sorted(parts)\n"
        ),
    })
    report = lint_project(project, SUP)
    (orphan,) = report.diagnostics
    assert orphan.code == "AQ541"
    assert orphan.severity.value == "warning"
    assert (orphan.source.path, orphan.source.line) == ("fix/sup.py", 2)
    assert report.ok and report.suppressed == []


def test_missing_root_is_aq500():
    report = lint_project(
        project_of("ambient_clean"),
        LintConfig(worker_roots=("fix.ambient_clean:vanished",)),
    )
    assert [d.code for d in report.diagnostics] == ["AQ500"]


# -- end to end -------------------------------------------------------------


def test_repo_is_clean_under_strict():
    report = lint_repo()
    assert report.diagnostics == [], "\n" + report.format()
    # every remaining annotation suppresses a finding, and few remain
    assert 0 < len(report.suppressed) <= 6
    assert report.n_files > 50
    assert report.n_worker_reachable > 20
    # acceptance: a full-repo lint stays interactive
    assert report.elapsed_s < 10.0


def test_selfcheck_catches_all_seeded_violations():
    ok, lines = run_selfcheck()
    assert ok, "\n".join(lines)


def test_cli_lint_json(capsys):
    from repro.__main__ import main

    assert main(["lint", "--json", "--strict"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["diagnostics"] == []
    assert doc["passes"] == list(PASSES)
    assert "baselined" not in doc
    assert {"path", "line", "col", "symbol"} <= set(doc["suppressed"][0])
