"""Pass 1 — fork/pickle-boundary verification (AQ510–AQ513).

Everything crossing the :class:`~repro.engine.procpool.ProcessPool`
dispatch/return boundary is pickled.  On a fork platform a violation
only surfaces at runtime, as an opaque ``PicklingError`` from a worker
— this pass rejects the shapes that can never cross, statically:

- ``AQ510`` — a ``lambda`` in a shipped value;
- ``AQ511`` — a known-unpicklable capture in a shipped value: tracers,
  injectors, locks, string heaps, pipe connections, thread-local state
  (by attribute/name deny-list, plus ``get_tracer()`` /
  ``get_fault_injector()`` / ``Lock()`` calls);
- ``AQ512`` — a nested function (closure) in a shipped value;
- ``AQ513`` — a ``Process(target=...)`` whose target is not a plain
  module-level function.

Boundary sites are recognised syntactically: ``<conn-ish>.send(...)``
(the receiver's last name component is ``conn``-like), ``<pool-ish>
.run(...)``, and ``Process(...)`` constructions.  Shipped-value
expressions are traversed structurally — through tuples, lists,
dicts, comprehension elements, conditional arms, starred elements and
single-assignment local names — but **not** into arbitrary call
arguments: a call's *result* crosses the boundary, not its operands,
so ``pool.run(requests, batch_opts(self.tracer))`` is clean while
``pool.run([(self.tracer, b) for b in batches])`` is not.
"""

from __future__ import annotations

import ast

from repro.analysis.conccheck.model import (
    FuncInfo,
    Project,
    _receiver_text,
)
from repro.analysis.conccheck.report import lint_diag
from repro.analysis.diagnostics import Diagnostic

__all__ = [
    "UNPICKLABLE_CALLS",
    "UNPICKLABLE_NAMES",
    "run_boundary_pass",
]

# Attribute / bare-name components that denote unpicklable runtime
# state in this codebase's vocabulary.
UNPICKLABLE_NAMES = frozenset({
    "tracer", "_tracer", "injector", "_injector", "lock", "_lock",
    "heap", "_heap", "conn", "_conn", "_local", "_queues", "proc",
})

# Calls whose result is ambient/unpicklable state.
UNPICKLABLE_CALLS = frozenset({
    "get_tracer", "get_fault_injector", "Lock", "RLock", "Condition",
    "Semaphore", "SimpleQueue", "Queue", "Pipe", "local",
})

_CONTAINER_CALLS = frozenset({"tuple", "list", "dict", "set"})


def _is_connish(receiver: str | None) -> bool:
    if not receiver:
        return False
    last = receiver.rsplit(".", 1)[-1]
    return last == "conn" or last.endswith("_conn") or \
        last.startswith("conn")


def _is_poolish(receiver: str | None) -> bool:
    if not receiver:
        return False
    last = receiver.rsplit(".", 1)[-1]
    return last == "pool" or last.endswith("_pool") or \
        last.endswith("pool")


class _ShippedValueChecker:
    """Structural walk over an expression that will be pickled."""

    def __init__(self, info: FuncInfo, project: Project,
                 out: list[Diagnostic]) -> None:
        self.info = info
        self.project = project
        self.out = out
        self._followed: set[str] = set()
        # single-assignment map: local name -> value expression
        self._bindings: dict[str, ast.AST] = {}
        self._multi: set[str] = set()
        for stmt in ast.walk(info.node):
            if not isinstance(stmt, ast.Assign) or \
                    len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                if target.id in self._bindings:
                    self._multi.add(target.id)
                self._bindings[target.id] = stmt.value

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.out.append(lint_diag(
            code, message, path=self.info.path, node=node,
            symbol=self.info.qualname,
        ))

    def check(self, expr: ast.AST) -> None:
        if isinstance(expr, ast.Lambda):
            self._flag(
                "AQ510", expr,
                "lambda crosses the process boundary: lambdas cannot "
                "be pickled",
            )
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self.check(elt)
        elif isinstance(expr, ast.Starred):
            self.check(expr.value)
        elif isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self.check(key)
            for value in expr.values:
                self.check(value)
        elif isinstance(expr, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp)):
            self.check(expr.elt)
        elif isinstance(expr, ast.DictComp):
            self.check(expr.key)
            self.check(expr.value)
        elif isinstance(expr, ast.IfExp):
            self.check(expr.body)
            self.check(expr.orelse)
        elif isinstance(expr, ast.Call):
            self._check_call(expr)
        elif isinstance(expr, ast.Name):
            self._check_name(expr)
        elif isinstance(expr, ast.Attribute):
            self._check_attr(expr)
        # constants, subscripts of unknowns, binops: no verdict

    def _check_call(self, expr: ast.Call) -> None:
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in UNPICKLABLE_CALLS:
            self._flag(
                "AQ511", expr,
                f"result of {name}(...) crosses the process boundary "
                "but is ambient/unpicklable state",
            )
        elif name in _CONTAINER_CALLS:
            for arg in expr.args:
                self.check(arg)
        # any other call: its operands do not cross, stop here

    def _check_name(self, expr: ast.Name) -> None:
        name = expr.id
        if name in UNPICKLABLE_NAMES:
            self._flag(
                "AQ511", expr,
                f"{name!r} crosses the process boundary but names "
                "unpicklable runtime state",
            )
            return
        if name in self.info.nested:
            self._flag(
                "AQ512", expr,
                f"nested function {name!r} crosses the process "
                "boundary: closures cannot be pickled",
            )
            return
        if name in self._bindings and name not in self._multi and \
                name not in self._followed:
            self._followed.add(name)  # cycle guard
            self.check(self._bindings[name])

    def _check_attr(self, expr: ast.Attribute) -> None:
        if expr.attr in UNPICKLABLE_NAMES:
            text = _receiver_text(expr) or expr.attr
            self._flag(
                "AQ511", expr,
                f"{text!r} crosses the process boundary but names "
                "unpicklable runtime state",
            )


def _check_process_target(
    info: FuncInfo, project: Project, call: ast.Call,
    out: list[Diagnostic],
) -> None:
    mod = project.module_of(info)
    for kw in call.keywords:
        if kw.arg == "target":
            target = kw.value
            ok = False
            if isinstance(target, ast.Name):
                resolved = info.local_imports.get(target.id) \
                    or mod.imports.get(target.id)
                ok = bool(
                    f"{info.module}:{target.id}" in project.functions
                    or (resolved is not None and ":" in resolved)
                )
            if not ok:
                out.append(lint_diag(
                    "AQ513",
                    "Process target must be a module-level function "
                    "(bound methods, lambdas and closures cannot be "
                    "pickled and break fork/spawn portability)",
                    path=info.path, node=kw.value,
                    symbol=info.qualname,
                ))
        elif kw.arg == "args":
            checker = _ShippedValueChecker(info, project, out)
            checker.check(kw.value)


def run_boundary_pass(
    project: Project, scope: set[str] | None = None
) -> list[Diagnostic]:
    """Scan boundary call sites; ``scope=None`` means every function."""
    out: list[Diagnostic] = []
    quals = scope if scope is not None else set(project.functions)
    for info in project.functions_in_scope(quals):
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = _receiver_text(func.value)
                if func.attr == "send" and _is_connish(receiver):
                    checker = _ShippedValueChecker(info, project, out)
                    for arg in node.args:
                        checker.check(arg)
                elif func.attr == "run" and _is_poolish(receiver):
                    checker = _ShippedValueChecker(info, project, out)
                    for arg in node.args:
                        checker.check(arg)
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name == "Process":
                _check_process_target(info, project, node, out)
    return out
