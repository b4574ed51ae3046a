"""Lint configuration: roots, sanctioned points, exemptions.

The configuration *is* the concurrency contract, written down: which
functions are worker entry points, which merge/pack functions must be
deterministic, and which functions are allowed to touch ambient state.
Each qualname listed here is verified to exist at lint time — renaming
``SpanRunner.run_span_safe`` without updating the contract fails the
build with ``AQ500`` rather than silently shrinking the checked
surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "LintConfig",
    "default_config",
    "package_root",
    "repo_root",
]


@dataclass
class LintConfig:
    """Everything one :func:`~repro.analysis.conccheck.lint_project`
    run needs besides the sources."""

    # Functions whose bodies execute on forked pool workers.
    worker_roots: tuple[str, ...] = ()
    # Merge / partial-(un)pack functions: deterministic by contract.
    result_roots: tuple[str, ...] = ()
    # Module prefixes exempt from the wall-clock/determinism checks
    # (observability measures time without affecting results).
    determinism_exempt: tuple[str, ...] = ()
    # Worker-reachable functions allowed to call the ambient installers.
    sanctioned_installers: tuple[str, ...] = ()
    # The only allowed call sites of the repatriation methods.
    sanctioned_repatriation: tuple[str, ...] = ()


def repo_root() -> Path:
    """The checkout root (the directory holding ``src/``)."""
    return Path(__file__).resolve().parents[4]


def package_root() -> Path:
    return Path(__file__).resolve().parents[2]


def default_config() -> LintConfig:
    """The committed concurrency contract for this repository."""
    return LintConfig(
        worker_roots=(
            # forked process worker: batch loop and dispatcher
            "repro.engine.procpool:_worker_main",
            "repro.engine.procpool:_handle",
            # the per-span pipeline both backends execute
            "repro.engine.morsel:SpanRunner.run_span_safe",
        ),
        result_roots=(
            "repro.engine.morsel:merge_plan",
            "repro.engine.morsel:_reduce",
            "repro.engine.morsel:pack_partial",
            "repro.engine.morsel:unpack_partial",
            "repro.engine.relation:Relation.concat",
            "repro.engine.procpool:absorb_obs",
            "repro.faults.injector:FaultInjector.absorb",
        ),
        determinism_exempt=("repro.obs",),
        sanctioned_installers=(
            # process-worker batch setup/teardown
            "repro.engine.procpool:_worker_main",
            "repro.engine.procpool:_handle",
            # degradation bookkeeping: the injector flips /healthz on
            # recovery paths; workers repatriate the flag via replies
            "repro.faults.injector:FaultInjector.charge_page_reads",
            "repro.faults.injector:FaultInjector.record_fallback",
            "repro.faults.injector:FaultInjector.record_unrecoverable",
        ),
        sanctioned_repatriation=(
            "repro.engine.procpool:absorb_obs",
        ),
    )
