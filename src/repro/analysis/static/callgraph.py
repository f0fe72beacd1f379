"""Module parsing, import resolution and the digest-reachability pass.

The DET rules must not spam code that cannot influence a persisted digest,
so the analyzer builds a project-wide call graph and computes the
*digest-affecting cone*:

* everything transitively **called by** a measured run loop (the
  ``run``/``replay``/``run_matrix``... entry points) — whatever executes
  inside a run shapes hop counters and therefore digests;
* everything that transitively **calls** a digest sink (``to_dict``,
  ``digest``, ``summary``, the P/Q rendezvous algebra) — whatever feeds a
  serializer feeds the digest.

Name resolution is deliberately over-approximate: attribute calls link to
every known function with that terminal name.  Over-approximation can only
widen the cone (more scrutiny), never hide digest-affecting code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


@dataclass
class ImportTable:
    """Local name -> dotted target for one module's imports."""

    names: Dict[str, str] = field(default_factory=dict)

    def add_import(self, alias: ast.alias) -> None:
        local = alias.asname or alias.name.split(".", 1)[0]
        target = alias.name if alias.asname else alias.name.split(".", 1)[0]
        self.names[local] = target

    def add_from_import(
        self, node: ast.ImportFrom, module: str
    ) -> None:
        base = node.module or ""
        if node.level:
            # Resolve ``from ..x import y`` against the importing module.
            parts = module.split(".")
            if len(parts) >= node.level:
                prefix = parts[: len(parts) - node.level]
                base = ".".join(prefix + ([base] if base else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.names[local] = f"{base}.{alias.name}" if base else alias.name

    def resolve(self, local: str) -> Optional[str]:
        """The dotted target ``local`` was imported as, if any."""
        return self.names.get(local)


@dataclass
class FunctionNode:
    """One function/method definition plus the calls it makes."""

    qualname: str                     # module.Class.name or module.name
    name: str                         # terminal name
    module: str
    lineno: int
    node: ast.AST
    #: Resolved dotted call targets (``time.perf_counter``) and plain
    #: names; matched against known functions at graph-link time.
    name_calls: List[str] = field(default_factory=list)
    #: Terminal method names of attribute calls (``x.to_dict()`` -> to_dict).
    attr_calls: List[str] = field(default_factory=list)


@dataclass
class ClassNode:
    """One class definition: bases (terminal names) and method names."""

    qualname: str
    name: str
    module: str
    lineno: int
    node: ast.ClassDef
    bases: Tuple[str, ...]
    methods: FrozenSet[str]


@dataclass
class ModuleView:
    """Everything the rules need to know about one parsed file."""

    path: str
    module: str
    tree: ast.Module
    source_lines: List[str]
    imports: ImportTable
    functions: List[FunctionNode]
    classes: List[ClassNode]
    #: Pseudo-function holding module/class-level statements (import-time
    #: code); DET rules treat it as always digest-relevant.
    toplevel: FunctionNode

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""


def _terminal_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def resolve_call_target(
    func: ast.AST, imports: ImportTable
) -> Tuple[Optional[str], Optional[str]]:
    """Resolve a Call's func to ``(dotted_target, terminal_name)``.

    ``dotted_target`` is filled when the call resolves through the import
    table (``_time.perf_counter()`` -> ``time.perf_counter``; a bare name
    imported via ``from x import f`` -> ``x.f``); ``terminal_name`` is
    always the last component.
    """
    if isinstance(func, ast.Name):
        resolved = imports.resolve(func.id)
        return resolved or func.id, func.id
    if isinstance(func, ast.Attribute):
        parts: List[str] = [func.attr]
        cursor: ast.AST = func.value
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            root = imports.resolve(cursor.id) or cursor.id
            dotted = ".".join([root] + list(reversed(parts)))
            return dotted, func.attr
        return None, func.attr
    return None, None


class _ModuleWalker(ast.NodeVisitor):
    """Collect functions, classes and their outgoing calls for one file."""

    def __init__(self, module: str, imports: ImportTable) -> None:
        self.module = module
        self.imports = imports
        self.functions: List[FunctionNode] = []
        self.classes: List[ClassNode] = []
        self._scope: List[str] = []
        self._function_stack: List[FunctionNode] = []
        self.toplevel = FunctionNode(
            qualname=f"{module}.<module>", name="<module>", module=module,
            lineno=0, node=ast.Module(body=[], type_ignores=[]),
        )

    def _current(self) -> FunctionNode:
        return self._function_stack[-1] if self._function_stack \
            else self.toplevel

    def _visit_function(self, node) -> None:
        qualname = ".".join([self.module] + self._scope + [node.name])
        function = FunctionNode(
            qualname=qualname, name=node.name, module=self.module,
            lineno=node.lineno, node=node,
        )
        self.functions.append(function)
        self._scope.append(node.name)
        self._function_stack.append(function)
        self.generic_visit(node)
        self._function_stack.pop()
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = ".".join([self.module] + self._scope + [node.name])
        bases = []
        for base in node.bases:
            terminal = _terminal_attr(base)
            if terminal is not None:
                bases.append(terminal)
        methods = frozenset(
            child.name for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        self.classes.append(ClassNode(
            qualname=qualname, name=node.name, module=self.module,
            lineno=node.lineno, node=node, bases=tuple(bases),
            methods=methods,
        ))
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_Call(self, node: ast.Call) -> None:
        dotted, terminal = resolve_call_target(node.func, self.imports)
        current = self._current()
        if isinstance(node.func, ast.Name):
            if dotted is not None:
                current.name_calls.append(dotted)
        elif isinstance(node.func, ast.Attribute):
            if terminal is not None:
                current.attr_calls.append(terminal)
            if dotted is not None:
                current.name_calls.append(dotted)
        self.generic_visit(node)


def build_module_view(path: str, module: str, source: str) -> ModuleView:
    """Parse one file into the analyzer's module representation."""
    tree = ast.parse(source, filename=path)
    imports = ImportTable()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.add_import(alias)
        elif isinstance(node, ast.ImportFrom):
            imports.add_from_import(node, module)
    walker = _ModuleWalker(module, imports)
    walker.visit(tree)
    return ModuleView(
        path=path,
        module=module,
        tree=tree,
        source_lines=source.splitlines(),
        imports=imports,
        functions=walker.functions,
        classes=walker.classes,
        toplevel=walker.toplevel,
    )


class ProjectIndex:
    """Cross-file function/class indexes plus the digest-affecting cone."""

    def __init__(self, modules: Sequence[ModuleView]) -> None:
        self.modules = list(modules)
        self.functions: Dict[str, FunctionNode] = {}
        self.by_terminal: Dict[str, List[str]] = {}
        self.classes: Dict[str, List[ClassNode]] = {}
        for view in self.modules:
            for function in view.functions:
                self.functions[function.qualname] = function
                self.by_terminal.setdefault(function.name, []).append(
                    function.qualname
                )
            for cls in view.classes:
                self.classes.setdefault(cls.name, []).append(cls)
        self._edges = self._link()
        self._reverse: Dict[str, Set[str]] = {}
        for caller, callees in self._edges.items():
            for callee in callees:
                self._reverse.setdefault(callee, set()).add(caller)
        self._cone: Optional[FrozenSet[str]] = None

    def _link(self) -> Dict[str, Set[str]]:
        edges: Dict[str, Set[str]] = {}
        for qualname, function in self.functions.items():
            targets: Set[str] = set()
            for dotted in function.name_calls:
                if dotted in self.functions:
                    targets.add(dotted)
                    continue
                terminal = dotted.rsplit(".", 1)[-1]
                local = f"{function.module}.{terminal}"
                if local in self.functions:
                    targets.add(local)
                else:
                    targets.update(self.by_terminal.get(terminal, ()))
            for terminal in function.attr_calls:
                targets.update(self.by_terminal.get(terminal, ()))
            targets.discard(qualname)
            edges[qualname] = targets
        return edges

    def callees(self, qualname: str) -> FrozenSet[str]:
        return frozenset(self._edges.get(qualname, ()))

    def _closure(
        self, seeds: Set[str], edges: Dict[str, Set[str]]
    ) -> Set[str]:
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            current = frontier.pop()
            for neighbor in edges.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def digest_cone(
        self, entry_names: FrozenSet[str], sink_names: FrozenSet[str]
    ) -> FrozenSet[str]:
        """Qualnames of every digest-affecting function (memoized)."""
        if self._cone is None:
            entries = {
                qualname for qualname, function in self.functions.items()
                if function.name in entry_names
            }
            sinks = {
                qualname for qualname, function in self.functions.items()
                if function.name in sink_names
            }
            cone = self._closure(entries, self._edges)
            cone |= self._closure(sinks, self._reverse)
            self._cone = frozenset(cone)
        return self._cone

    def class_has_method(self, class_name: str, method: str) -> bool:
        """Whether ``class_name`` (or any known ancestor) defines
        ``method`` — base classes resolved by terminal name across the
        project, builtin bases treated as method-free."""
        pending = [class_name]
        seen: Set[str] = set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            for cls in self.classes.get(name, ()):
                if method in cls.methods:
                    return True
                pending.extend(cls.bases)
        return False
