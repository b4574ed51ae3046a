"""Static plan analysis: verify before execute.

Four passes over a :class:`repro.sqlir.Plan` + catalog, none of which
executes a single row.  One :class:`TypeChecker` types the plan once
per analysis; every pass reads its memoised ``schema_of``:

``types``
    Schema/dtype inference over every operator and expression
    (:mod:`repro.analysis.typecheck`, ``AQ1xx``).
``suspend``
    Predict each real device suspension as NEVER / ALWAYS /
    DEPENDS[lo, hi] from offload decisions, catalog statistics and the
    DRAM/bucket budgets (:mod:`repro.analysis.suspend`, ``AQ2xx``).
    Needs a :class:`repro.core.device.DeviceConfig`.
``pe``
    Abstractly execute the Row Transformer PE programs each Project
    would lower to (:mod:`repro.analysis.peverify`, ``AQ3xx``).
``morsel``
    Report which aggregate fragments merge bit-identically under morsel
    parallelism (:mod:`repro.analysis.morselsafety`, ``AQ4xx``).  The
    morsel executor asks the same :func:`aggregate_merge_verdict` per
    fragment itself, so this pass informs reports, never execution.

The engine's gate (``Engine(analyze=...)``) runs ``types`` only
(:data:`ENGINE_PASSES`): it is the one pass that emits diagnostics
without a device.  ``repro analyze``, the doctor and a ``device=``
call run all four.

Layering: this package imports ``sqlir``, ``storage`` and ``core``
compile-time modules only — never ``repro.engine`` or the simulator.
The engine imports *us* (``engine.morsel`` for merge verdicts), so
any import in the other direction would cycle.  The offload-root rule
:func:`subtree_reduces` is the compiler's, re-exported here.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    PlanAnalysisWarning,
    PlanRejected,
    Severity,
    diag,
)
from repro.analysis.morselsafety import (
    MergeVerdict,
    aggregate_merge_verdict,
    fragment_verdicts,
    streamable_chain,
)
from repro.analysis.peverify import (
    RawInstr,
    verify_instructions,
    verify_program,
    verify_transform_graph,
)
from repro.analysis.suspend import (
    SuspendPrediction,
    SuspendPredictor,
    Verdict,
    subtree_reduces,
)
from repro.analysis.typecheck import (
    ColumnMeta,
    InferenceError,
    TypeChecker,
    scan_schema,
)
from repro.obs import METRICS, get_tracer
from repro.sqlir.expr import ColumnRef, Kind
from repro.sqlir.plan import (
    Plan,
    Project,
    assign_node_ids,
    walk_with_subqueries,
)

__all__ = [
    "AnalysisReport",
    "ColumnMeta",
    "Diagnostic",
    "InferenceError",
    "MergeVerdict",
    "PlanAnalysisWarning",
    "PlanRejected",
    "RawInstr",
    "Severity",
    "SuspendPrediction",
    "SuspendPredictor",
    "TypeChecker",
    "Verdict",
    "aggregate_merge_verdict",
    "analyze_plan",
    "diag",
    "fragment_verdicts",
    "node_schemas",
    "scan_schema",
    "streamable_chain",
    "subtree_reduces",
    "verify_instructions",
    "verify_program",
    "verify_transform_graph",
]

ENGINE_PASSES = ("types",)
ALL_PASSES = ("types", "suspend", "pe", "morsel")


def node_schemas(plan: Plan, checker: TypeChecker) -> dict[int, dict]:
    """Per-node static predictions keyed by ``node_id``.

    For every node of an analysed plan (``checker`` is its report's
    :attr:`~AnalysisReport.checker`): the operator name, its repr and
    the inferred output schema — the "estimate" half of the doctor's
    explain-analyze table.  Scalar subquery plans are excluded: they
    never get engine spans of their own.
    """
    out: dict[int, dict] = {}
    for node in plan.walk():
        if node.node_id is None:  # pragma: no cover - never analysed
            continue
        schema = checker.schema_of(node)
        out[node.node_id] = {
            "op": type(node).__name__.lower(),
            "node": repr(node),
            "columns": (
                None
                if schema is None
                else {n: m.describe() for n, m in schema.items()}
            ),
            "n_columns": None if schema is None else len(schema),
        }
    return out


def analyze_plan(
    plan: Plan,
    catalog: Any,
    device: Any = None,
    passes: tuple[str, ...] | None = None,
) -> AnalysisReport:
    """Run the selected static passes and aggregate one report.

    ``device`` (a :class:`repro.core.device.DeviceConfig`) enables the
    device-facing passes; without it the default is
    :data:`ENGINE_PASSES`, the type check the engine's gate runs inline.
    """
    if passes is None:
        passes = ALL_PASSES if device is not None else ENGINE_PASSES
    unknown = [p for p in passes if p not in ALL_PASSES]
    if unknown:
        raise ValueError(
            f"unknown analysis pass(es) {unknown}; choose from {ALL_PASSES}"
        )

    tracer = get_tracer()
    report = AnalysisReport(passes=tuple(passes))
    with tracer.span("analysis.plan", passes=",".join(passes)):
        report.n_nodes = assign_node_ids(plan)
        checker = TypeChecker(catalog, collect="types" in passes)
        report.checker = checker

        if "types" in passes:
            with tracer.span("analysis.types"):
                checker.schema_of(plan)
                report.diagnostics.extend(checker.diagnostics)
            # From here on the checker only answers from its memo.
            checker.collect = False

        if "suspend" in passes:
            if device is None:
                raise ValueError(
                    "the 'suspend' pass needs a DeviceConfig (device=...)"
                )
            with tracer.span("analysis.suspend"):
                predictor = SuspendPredictor(catalog, device, checker)
                predictions, diagnostics = predictor.predict(plan)
                report.suspend.update(predictions)
                report.diagnostics.extend(diagnostics)

        if "pe" in passes:
            with tracer.span("analysis.pe"):
                report.diagnostics.extend(_pe_pass(plan, checker, device))

        if "morsel" in passes:
            with tracer.span("analysis.morsel"):
                report.fragments = fragment_verdicts(plan, catalog, checker)

    METRICS.counter("analysis.plans_analyzed").inc()
    return report


def _pe_pass(plan: Plan, checker: TypeChecker,
             device: Any) -> list[Diagnostic]:
    """Lower every Project's computed outputs the way the Row
    Transformer would and verify the resulting PE programs."""
    from repro.core.dataflow import (
        UnsupportedTransform,
        build_transform_graph,
    )

    imem = device.pe_imem_size if device is not None else None
    out: list[Diagnostic] = []
    # dict.fromkeys: a subtree two parents share is verified once
    for node in dict.fromkeys(walk_with_subqueries(plan)):
        if not isinstance(node, Project):
            continue
        pe_outputs = [
            (name, expr)
            for name, expr in node.outputs
            if not isinstance(expr, ColumnRef)
        ]
        if not pe_outputs:
            continue
        schema = checker.schema_of(node.child)
        if schema is None:
            continue  # the types pass already reported the cause
        scales = {
            name: (meta.scale if meta.kind is Kind.INT else 0)
            for name, meta in schema.items()
        }
        try:
            graph = build_transform_graph(
                pe_outputs, input_scales=scales, imem_size=imem
            )
        except UnsupportedTransform as reason:
            out.append(
                diag(
                    "AQ308",
                    Severity.INFO,
                    f"no PE lowering ({reason}); the device falls back "
                    "to host-style evaluation",
                    node,
                )
            )
            continue
        except ValueError as err:
            out.append(diag("AQ303", Severity.ERROR, str(err), node))
            continue
        out.extend(verify_transform_graph(graph, node))
    return out
