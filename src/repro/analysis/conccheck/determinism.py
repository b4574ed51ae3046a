"""Pass 2 — determinism lint over result-affecting paths (AQ520–AQ523).

The recovery contract (DESIGN.md §9) makes every result a pure
function of the query and, under injection, of ``(seed, site)``; the
merge rules (§5) additionally require partials to combine identically
at any worker count.  Those contracts die quietly the moment a
result-affecting path consults an unseeded RNG, the wall clock, object
identity, or set iteration order.  This pass walks every function
reachable from the worker entry points *and* the merge/pack roots and
rejects:

- ``AQ520`` — unseeded RNG: ``random.*`` module-level functions,
  ``np.random.*`` legacy global state, ``np.random.default_rng()``
  without a seed;
- ``AQ521`` — wall-clock reads (``time.time``, ``datetime.now``,
  ``time.monotonic``...).  Observability modules are exempt by
  configuration: spans *measure* time without affecting results;
- ``AQ522`` — ``id(...)`` in a result-affecting path: identity is
  per-process and allocation-order dependent, so any ``id``-keyed
  decision needs a ``# conc: safe`` proof that it never leaves the
  process;
- ``AQ523`` — iteration over a set (literal, constructor, comprehension,
  set-algebra result, or a call to a project function returning
  ``set[...]``) in merge/pack code without ``sorted(...)``: string
  hashes vary per process (``PYTHONHASHSEED``), so set order is not
  even stable between a worker and its parent.

Membership tests (``x in needed``) and ``sorted(set_expr)`` are fine —
only *order-observing* uses are flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.conccheck.model import FuncInfo, Project
from repro.analysis.conccheck.report import lint_diag
from repro.analysis.diagnostics import Diagnostic

__all__ = ["WALL_CLOCK_CALLS", "run_determinism_pass"]

# module-alias -> attribute names that read the wall clock
WALL_CLOCK_CALLS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "localtime", "gmtime",
             "strftime", "ctime"},
    "datetime": {"now", "today", "utcnow"},
    "date": {"today"},
}

_RANDOM_SEEDED_OK = {"default_rng", "Generator", "SeedSequence",
                     "PCG64", "Philox"}


def _set_returning(info: FuncInfo, project: Project,
                   call: ast.Call) -> bool:
    """Does this call resolve to a project function annotated -> set?"""
    func = call.func
    quals: list[str] = []
    if isinstance(func, ast.Name):
        quals = project._resolve_bare(info, func.id)
    elif isinstance(func, ast.Attribute):
        from repro.analysis.conccheck.model import CallRef, \
            _receiver_text
        quals = project._resolve_attr(
            info, CallRef("attr", func.attr,
                          _receiver_text(func.value), call)
        )
    for qual in quals:
        ann = project.functions[qual].return_annotation
        head = ann.split("[", 1)[0].strip()
        if head in ("set", "frozenset", "Set", "FrozenSet"):
            return True
    return False


class _DetVisitor(ast.NodeVisitor):
    def __init__(self, info: FuncInfo, project: Project,
                 out: list[Diagnostic]) -> None:
        self.info = info
        self.project = project
        self.mod = project.module_of(info)
        self.out = out
        # local names known to hold sets
        self.set_names: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are scanned as their own functions

    visit_AsyncFunctionDef = visit_FunctionDef

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.out.append(lint_diag(
            code, message, path=self.info.path, node=node,
            symbol=self.info.qualname,
        ))

    # -- set typing ------------------------------------------------------------

    def _is_set_expr(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.set_names
        if isinstance(expr, ast.Call):
            func = expr.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name in ("set", "frozenset"):
                return True
            if name in ("union", "intersection", "difference",
                        "symmetric_difference") and \
                    isinstance(func, ast.Attribute) and \
                    self._is_set_expr(func.value):
                return True
            if name == "column_refs":
                return True  # Expr.column_refs() -> set[str], pervasive
            return _set_returning(self.info, self.project, expr)
        if isinstance(expr, ast.BinOp) and \
                isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
            return self._is_set_expr(expr.left) or \
                self._is_set_expr(expr.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        target = node.targets[0] if len(node.targets) == 1 else None
        if isinstance(target, ast.Name):
            if self._is_set_expr(node.value):
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # needed |= step.predicate.column_refs() keeps set-ness
        self.generic_visit(node)

    # -- order-observing uses ---------------------------------------------------

    def _check_iteration(self, iter_expr: ast.AST,
                         node: ast.AST) -> None:
        if self._is_set_expr(iter_expr):
            self._flag(
                "AQ523", node,
                "iteration over a set in a merge/result path: set "
                "order depends on per-process string hashing — wrap "
                "in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        # list(set) / tuple(set) / enumerate(set): order-observing
        if name in ("list", "tuple", "enumerate", "iter", "next",
                    "zip", "map") and node.args:
            for arg in node.args:
                self._check_iteration(arg, node)
        if name == "id" and isinstance(func, ast.Name) and \
                "id" not in self.info.local_names:
            self._flag(
                "AQ522", node,
                "id(...) in a result-affecting path: object identity "
                "is per-process and allocation-ordered",
            )
        self._check_rng(node, name)
        self._check_clock(node, name)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: str) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            # `from random import random` style
            target = self.info.local_imports.get(name) \
                or self.mod.imports.get(name)
            if target is not None and target.startswith("random:"):
                self._flag(
                    "AQ520", node,
                    f"unseeded random.{target.split(':')[1]}() in a "
                    "result-affecting path",
                )
            return
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "random":
            if name not in ("Random", "SystemRandom", "seed"):
                self._flag(
                    "AQ520", node,
                    f"unseeded random.{name}() shares global RNG "
                    "state across workers",
                )
            elif name == "seed":
                self._flag(
                    "AQ520", node,
                    "random.seed() mutates interpreter-global RNG "
                    "state — derive a seeded Generator instead",
                )
        elif isinstance(recv, ast.Attribute) and \
                recv.attr == "random" and \
                isinstance(recv.value, ast.Name) and \
                recv.value.id in ("np", "numpy"):
            if name == "default_rng":
                if not node.args and not node.keywords:
                    self._flag(
                        "AQ520", node,
                        "np.random.default_rng() without a seed is "
                        "nondeterministic",
                    )
            elif name not in _RANDOM_SEEDED_OK:
                self._flag(
                    "AQ520", node,
                    f"np.random.{name}() uses the legacy global RNG "
                    "state",
                )

    def _check_clock(self, node: ast.Call, name: str) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or \
                not isinstance(func.value, ast.Name):
            return
        recv = func.value.id
        if name in WALL_CLOCK_CALLS.get(recv, ()):
            self._flag(
                "AQ521", node,
                f"wall-clock read {recv}.{name}() in a "
                "result-affecting path",
            )


def run_determinism_pass(
    project: Project, scope: set[str],
    exempt_prefixes: tuple[str, ...] = (),
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for info in project.functions_in_scope(scope):
        if any(info.module.startswith(p) for p in exempt_prefixes):
            continue
        visitor = _DetVisitor(info, project, out)
        # pre-seed set-typed locals from parameter annotations
        args = info.node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if a.annotation is not None:
                head = ast.unparse(a.annotation).split("[", 1)[0]
                if head.strip() in ("set", "frozenset"):
                    visitor.set_names.add(a.arg)
        for stmt in info.node.body:
            visitor.visit(stmt)
    return out
