"""The reachability gate: code that only tests call is not the system.

Every ``def`` and ``class`` in ``src/repro`` (at module level or in a class
body) must be reached from a root: ``repro.__all__``; all of ``repro.cli``,
``repro.__main__`` and any module with a ``__main__`` block; module-level
statements but imports and ``__all__`` (the ``CLAIMS`` table, so every
experiment behind a paper or ``X`` row); every identifier used in
``benchmarks/**/*.py`` (the ledger) and ``examples/*.py``; dunder methods,
which Python calls.

A definition is reached when live code refers to its name — a call, a
``Name``, an ``Attribute`` or a string that is an identifier — and its body
is then live too.  Reach goes by name, not scope: two definitions sharing a
name are kept together, which errs towards keeping code.  That is its blind
spot: ``MatchMaker.average_cost``, which only tests called, stayed alive
through ``RendezvousMatrix.average_cost``.  ``tests/oracle/reach.py`` traces
calls instead and lists what no user surface runs; CI's ``reachability``
job fails unless that list equals ``tests/oracle/reach_expected.txt``,
which may only shrink.  A subpackage's ``__all__`` roots nothing.  There
is no allow-list: a checker only tests
need lives in ``tests/oracle/``; anything else is deleted, or rooted
because a user surface needs it.  It reads ``benchmarks/`` and
``examples/`` as well as the package, so it runs as a test of the
checkout.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Set

ROOT = Path(__file__).resolve().parents[2]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name the code under ``nodes`` refers to."""
    names: Set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.rpartition(".")[2])
    return names


def is_dunder_all(statement: ast.stmt) -> bool:
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return any(getattr(target, "id", None) == "__all__" for target in targets)


def is_whole_module_root(module: str, tree: ast.Module) -> bool:
    return module in ("cli.py", "__main__.py") or any(
        isinstance(statement, ast.If) and "__main__" in referenced([statement.test])
        for statement in tree.body
    )


def live_with(definition: ast.AST) -> List[ast.AST]:
    """What becomes live with a definition: all of a function; a class
    but its own member definitions, which are reached one by one."""
    if not isinstance(definition, ast.ClassDef):
        return [definition]
    return [
        *definition.decorator_list, *definition.bases, *definition.keywords,
        *(s for s in definition.body if not isinstance(s, DEFINITIONS)),
    ]


def unreached(src: Path, users: Iterable[Path]) -> List[str]:
    """``"module.py:line qualname"`` of every definition under the package
    ``src`` that its roots and the files ``users`` do not reach."""
    definitions = []  # (where, qualname, node, rooted)
    live_code: List[ast.AST] = []

    def collect(body, module, prefix, rooted):
        for statement in body:
            if isinstance(statement, DEFINITIONS):
                qualname = prefix + statement.name
                definitions.append((f"{module}:{statement.lineno}", qualname, statement, rooted))
                if isinstance(statement, ast.ClassDef):
                    collect(statement.body, module, qualname + ".", rooted)

    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text("utf-8"))
        collect(tree.body, module, "", is_whole_module_root(module, tree))
        for statement in tree.body:
            if module == "__init__.py" and is_dunder_all(statement):
                live_code.append(statement)  # repro.__all__ is the API
            elif not isinstance(statement, (ast.Import, ast.ImportFrom) + DEFINITIONS) \
                    and not is_dunder_all(statement):
                live_code.append(statement)
    live_code += [ast.parse(path.read_text("utf-8")) for path in users]

    live = referenced(live_code)
    reached: Set[int] = set()
    grew = True
    while grew:
        grew = False
        for index, (_, _, node, rooted) in enumerate(definitions):
            if index not in reached and (
                rooted or node.name in live
                or (node.name.startswith("__") and node.name.endswith("__"))
            ):
                reached.add(index)
                live |= referenced(live_with(node))
                grew = True
    return [
        f"{where} {qualname}"
        for index, (where, qualname, _, _) in enumerate(definitions)
        if index not in reached
    ]


def test_every_definition_in_src_is_reached_from_a_root():
    users = [*ROOT.glob("benchmarks/**/*.py"), *ROOT.glob("examples/*.py")]
    dead = unreached(ROOT / "src" / "repro", users)
    assert dead == [], (
        "only tests reach these: delete them, move a checker to tests/oracle/, "
        "or root one a user surface needs\n  " + "\n  ".join(dead)
    )


def test_the_gate_names_what_only_a_helper_of_dead_code_reaches(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text('__all__ = ["api"]\n')
    (package / "sub" / "__init__.py").write_text('__all__ = ["exported"]\n')
    (package / "sub" / "mod.py").write_text(
        "import os\n"
        "TABLE = {'by_string': None}\n"
        "def api():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def by_string():\n    pass\n"
        "def exported():\n    return inner()\n"
        "def inner():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def used_by_bench(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text("from pkg.sub.mod import Box\nBox().used_by_bench()\n")
    assert unreached(package, [bench]) == [
        "sub/mod.py:9 exported", "sub/mod.py:11 inner", "sub/mod.py:18 Box.unused",
    ]
