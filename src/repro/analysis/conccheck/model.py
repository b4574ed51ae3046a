"""Source model for the conccheck passes: AST index + call graph.

Loads every module of the package (or any explicit set of sources),
indexes functions by qualified name (``repro.engine.morsel:SpanRunner.
run_span_safe``; nested functions carry ``.<locals>.`` segments like
``__qualname__`` does), scans ``# conc: safe`` suppression comments,
and builds a conservative call graph so the passes can ask one
question cheaply: *is this function reachable from a worker entry
point?*

Call resolution is deliberately over-approximate — a checker that
misses edges is worthless — but bounded so the worker-reachable set
stays meaningful:

- bare names resolve through local defs, module globals and
  (function- or module-level) imports;
- ``ClassName.method`` and ``module.func`` resolve through the same
  namespaces;
- ``self.m()`` / ``cls.m()`` resolve within the enclosing class;
- ``x.m()`` where ``x = ClassName(...)`` or ``x = ClassName.factory
  (...)`` in the same function resolves against ``ClassName`` (the
  classmethod-factory idiom: the result is assumed to be an instance);
- any remaining attribute call resolves *by method name* against every
  project class defining it, but only when few classes do
  (:data:`DISTINCTIVE_MAX_DEFINERS`) — common names like
  ``run`` stay unresolved rather than wiring the whole repo together;
- referencing a function without calling it (``pool.map(runner.
  run_span_safe, spans)``) adds a may-call edge under the same rules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

__all__ = [
    "CallRef",
    "ClassInfo",
    "FuncInfo",
    "Project",
    "SourceModule",
]

_SAFE_RE = re.compile(r"#\s*conc:\s*safe\b(?P<why>.*)", re.IGNORECASE)

# The package the lint loads, and the attribute-call fallback's bound:
# a method name resolves against every class defining it only when at
# most this many classes do.
PACKAGE = "repro"
DISTINCTIVE_MAX_DEFINERS = 3


@dataclass
class CallRef:
    """One call (or function reference) site inside a function body."""

    kind: str                  # "bare" | "attr"
    name: str                  # callee bare name / attribute name
    receiver: str | None       # textual receiver chain for attr calls
    node: ast.AST | None = None  # the Call (or reference) node


@dataclass
class FuncInfo:
    """One function or method (possibly nested)."""

    qualname: str              # "pkg.mod:Class.meth" / "pkg.mod:f"
    module: str
    name: str
    node: FunctionNode
    path: str
    cls: str | None            # enclosing class name, if any
    calls: list[CallRef] = field(default_factory=list)
    # names this function binds locally (params, assignments, imports)
    local_names: set[str] = field(default_factory=set)
    # local name -> class qualname guess ("pkg.mod:Class")
    local_types: dict[str, str] = field(default_factory=dict)
    # local name -> imported target ("pkg.mod" | "pkg.mod:obj")
    local_imports: dict[str, str] = field(default_factory=dict)
    # immediate nested function defs, by bare name
    nested: dict[str, str] = field(default_factory=dict)

    @property
    def return_annotation(self) -> str:
        returns = getattr(self.node, "returns", None)
        return ast.unparse(returns) if returns is not None else ""


@dataclass
class ClassInfo:
    qualname: str              # "pkg.mod:Class"
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # bare -> qual


class SourceModule:
    """One parsed source file plus its suppression map."""

    def __init__(self, module: str, path: str, source: str) -> None:
        self.module = module
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        # line (1-based) -> justification text of a conc-safe comment;
        # tokenized so the marker inside a docstring does not count
        self.safe_lines: dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(source).readline
            )
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _SAFE_RE.search(tok.string)
                if match:
                    self.safe_lines[tok.start[0]] = \
                        match.group("why").strip(" -—:")
        except tokenize.TokenError:  # pragma: no cover
            pass
        # module-level import map: local name -> dotted target
        self.imports: dict[str, str] = {}

    def safe_annotation(self, lineno: int) -> int | None:
        """Line of the ``# conc: safe`` annotation covering ``lineno``:
        on the line itself, or the nearest one in the contiguous
        pure-comment block directly above.  ``None`` = not suppressed."""
        if lineno in self.safe_lines:
            return lineno
        lines = self.source.splitlines()
        cursor = lineno - 1
        while cursor >= 1 and \
                lines[cursor - 1].strip().startswith("#"):
            if cursor in self.safe_lines:
                return cursor
            cursor -= 1
        return None


def _receiver_text(node: ast.AST) -> str | None:
    """Dotted receiver chain ("self.tracer", "procpool") or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FunctionScanner(ast.NodeVisitor):
    """Collects calls, references, locals and type guesses for one
    function body (not descending into nested defs — those are scanned
    as their own functions)."""

    def __init__(self, info: FuncInfo, project: "Project") -> None:
        self.info = info
        self.project = project

    def scan(self, node: FunctionNode) -> None:
        args = node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.info.local_names.add(a.arg)
        if args.vararg:
            self.info.local_names.add(args.vararg.arg)
        if args.kwarg:
            self.info.local_names.add(args.kwarg.arg)
        for child in node.body:
            self.visit(child)

    # -- nested scopes are separate functions -------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.info.local_names.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.info.local_names.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # opaque; boundary pass inspects lambdas positionally

    # -- namespace tracking --------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.info.local_imports[name] = alias.name
            self.info.local_names.add(name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            name = alias.asname or alias.name
            self.info.local_imports[name] = \
                f"{node.module}:{alias.name}"
            self.info.local_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.info.local_names.add(target.id)
                guess = self._class_of(node.value)
                if guess:
                    self.info.local_types[target.id] = guess
        self.generic_visit(node)

    def _class_of(self, value: ast.AST) -> str | None:
        """``x = ClassName(...)`` / ``x = ClassName.factory(...)``."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            name = func.value.id  # classmethod-factory idiom
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return None
        return self.project.resolve_class(self.info, name)

    # -- call and reference collection ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.info.calls.append(
                CallRef("bare", func.id, None, node)
            )
        elif isinstance(func, ast.Attribute):
            self.info.calls.append(
                CallRef("attr", func.attr, _receiver_text(func.value),
                        node)
            )
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare reference (callback / map argument) is a may-call.
        if isinstance(node.ctx, ast.Load):
            self.info.calls.append(CallRef("bare", node.id, None, node))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.info.calls.append(
                CallRef("attr", node.attr, _receiver_text(node.value),
                        node)
            )
        self.generic_visit(node)


class Project:
    """A set of parsed modules with a function index and call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, SourceModule] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        # bare method name -> [qualified function names]
        self._by_method_name: dict[str, list[str]] = {}
        self._edges: dict[str, set[str]] | None = None

    # -- loading -------------------------------------------------------------

    @classmethod
    def load_package(cls, package_root: Path) -> "Project":
        """Parse every ``*.py`` under the package directory."""
        project = cls()
        for path in sorted(package_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(package_root).with_suffix("")
            parts = [PACKAGE, *rel.parts]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            project.add_source(
                ".".join(parts), str(path), path.read_text()
            )
        project.index()
        return project

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build from in-memory ``{module_name: source}`` (tests and
        the seeded self-check)."""
        project = cls()
        for module, source in sources.items():
            path = module.replace(".", "/") + ".py"
            project.add_source(module, path, source)
        project.index()
        return project

    def add_source(self, module: str, path: str, source: str) -> None:
        self.modules[module] = SourceModule(module, path, source)

    # -- indexing ------------------------------------------------------------

    def index(self) -> None:
        for mod in self.modules.values():
            self._index_module(mod)
        for mod in self.modules.values():
            self._scan_module(mod)
        self._edges = None

    def _index_module(self, mod: SourceModule) -> None:
        for node in mod.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    mod.imports[name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name
                    mod.imports[name] = f"{node.module}:{alias.name}"
        # functions, classes, methods, nested defs
        self._index_scope(mod, mod.tree.body, prefix="", cls=None)

    def _index_scope(
        self, mod: SourceModule, body: list[ast.stmt], prefix: str,
        cls: str | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod.module}:{prefix}{node.name}"
                info = FuncInfo(
                    qualname=qual, module=mod.module, name=node.name,
                    node=node, path=mod.path, cls=cls,
                )
                self.functions[qual] = info
                if cls is not None and "<locals>" not in prefix:
                    self.classes[
                        f"{mod.module}:{cls}"
                    ].methods[node.name] = qual
                    self._by_method_name.setdefault(
                        node.name, []
                    ).append(qual)
                # nested defs live inside the function's own scope
                self._index_scope(
                    mod, node.body,
                    prefix=f"{prefix}{node.name}.<locals>.", cls=cls,
                )
            elif isinstance(node, ast.ClassDef):
                cqual = f"{mod.module}:{node.name}"
                self.classes[cqual] = ClassInfo(
                    cqual, mod.module, node.name, node
                )
                self._index_scope(
                    mod, node.body, prefix=f"{prefix}{node.name}.",
                    cls=node.name,
                )

    def _scan_module(self, mod: SourceModule) -> None:
        for info in self.functions.values():
            if info.module != mod.module:
                continue
            scanner = _FunctionScanner(info, self)
            scanner.scan(info.node)
            for child in info.node.body:
                if isinstance(child,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.nested[child.name] = (
                        f"{info.qualname}.<locals>.{child.name}"
                    )

    # -- name resolution ------------------------------------------------------

    def resolve_class(
        self, info: FuncInfo, name: str
    ) -> str | None:
        """A bare name to a project class qualname, through imports."""
        target = info.local_imports.get(name)
        mod = self.modules[info.module]
        if target is None:
            target = mod.imports.get(name)
        if target is None:
            qual = f"{info.module}:{name}"
            return qual if qual in self.classes else None
        if ":" in target:
            target_mod, obj = target.split(":", 1)
            qual = f"{target_mod}:{obj}"
            return qual if qual in self.classes else None
        return None

    def _resolve_bare(
        self, info: FuncInfo, name: str
    ) -> list[str]:
        """A bare call/reference to function qualnames."""
        if name in info.nested:
            return [info.nested[name]]
        target = info.local_imports.get(name) \
            or self.modules[info.module].imports.get(name)
        if target is not None and ":" in target:
            target_mod, obj = target.split(":", 1)
            qual = f"{target_mod}:{obj}"
            if qual in self.functions:
                return [qual]
            if qual in self.classes:
                init = self.classes[qual].methods.get("__init__")
                return [init] if init else []
            return []
        qual = f"{info.module}:{name}"
        if qual in self.functions:
            return [qual]
        if qual in self.classes:
            init = self.classes[qual].methods.get("__init__")
            return [init] if init else []
        return []

    def _resolve_attr(
        self, info: FuncInfo, ref: CallRef
    ) -> list[str]:
        recv, name = ref.receiver, ref.name
        if recv in ("self", "cls") and info.cls is not None:
            cls = self.classes.get(f"{info.module}:{info.cls}")
            if cls and name in cls.methods:
                return [cls.methods[name]]
            # fall through: inherited / dynamic methods hit the
            # distinctive-name net below
        if recv is not None and "." not in recv:
            # ClassName.method
            cqual = self.resolve_class(info, recv)
            if cqual is not None:
                method = self.classes[cqual].methods.get(name)
                return [method] if method else []
            # module.func
            target = info.local_imports.get(recv) \
                or self.modules[info.module].imports.get(recv)
            if target is not None and ":" not in target:
                qual = f"{target}:{name}"
                if qual in self.functions:
                    return [qual]
                if qual in self.classes:
                    init = self.classes[qual].methods.get("__init__")
                    return [init] if init else []
            # x.m() where x = ClassName(...) locally
            guessed = info.local_types.get(recv)
            if guessed is not None:
                method = self.classes[guessed].methods.get(name)
                if method:
                    return [method]
        # distinctive-name fallback
        candidates = self._by_method_name.get(name, ())
        definers = {self.functions[q].cls for q in candidates}
        if candidates and len(definers) <= DISTINCTIVE_MAX_DEFINERS:
            return list(candidates)
        return []

    # -- call graph -----------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        if self._edges is None:
            edges: dict[str, set[str]] = {}
            for qual, info in self.functions.items():
                out: set[str] = set()
                for ref in info.calls:
                    if ref.kind == "bare":
                        out.update(self._resolve_bare(info, ref.name))
                    else:
                        out.update(self._resolve_attr(info, ref))
                out.discard(qual)
                edges[qual] = out
            self._edges = edges
        return self._edges

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Qualnames reachable (inclusively) from the given roots."""
        edges = self.edges()
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(edges.get(qual, ()) - seen)
        return seen

    def missing_roots(self, roots: Iterable[str]) -> list[str]:
        return [r for r in roots if r not in self.functions]

    # -- convenience -----------------------------------------------------------

    def module_of(self, info: FuncInfo) -> SourceModule:
        return self.modules[info.module]

    def functions_in_scope(
        self, quals: Iterable[str]
    ) -> list[FuncInfo]:
        """FuncInfos for qualnames, in deterministic source order."""
        infos = [self.functions[q] for q in quals
                 if q in self.functions]
        return sorted(
            infos, key=lambda i: (i.path, i.node.lineno)
        )
