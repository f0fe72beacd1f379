"""The reachability gate has no blind spot: an unused ``def`` appended to a
module of any subpackage of ``src/repro`` fails it, named; appended to a
module that is a root as a whole (``cli.py``, ``__main__.py``, a module with
a ``__main__`` block) it does not.  The gate runs once, over a copy of the
package with one differently named orphan per module, so the tree under
test is never touched."""

import shutil

import pytest
from test_reachability import ROOT, unreached

NAMED = [
    "__init__.py", "analysis/paper.py", "analysis/uucp.py",
    "core/types.py", "exec/plan.py", "network/routing.py", "obs/spans.py",
    "processes/system.py", "simtime/kernel.py", "strategies/manhattan.py",
    "topologies/tree.py", "workload/spec.py",
]
ROOTED = ["cli.py", "__main__.py"]


def orphan(module):
    return "orphan_" + module[:-3].replace("/", "_").strip("_")


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    """``(unreached, orphan line per module)`` over the mutated copy."""
    package = tmp_path_factory.mktemp("gate") / "repro"
    shutil.copytree(ROOT / "src" / "repro", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    lines = {}
    for module in NAMED + ROOTED:
        path = package / module
        source = path.read_text("utf-8") + f"\n\ndef {orphan(module)}():\n    return None\n"
        path.write_text(source, "utf-8")
        lines[module] = len(source.splitlines()) - 1
    users = [*ROOT.glob("benchmarks/**/*.py"), *ROOT.glob("examples/*.py")]
    return unreached(package, users), lines


@pytest.mark.parametrize("module", NAMED)
def test_an_unused_def_in_any_subpackage_is_named(gate, module):
    dead, lines = gate
    assert f"{module}:{lines[module]} {orphan(module)}" in dead
    assert len(dead) == len(NAMED)


@pytest.mark.parametrize("module", ROOTED)
def test_a_module_that_is_a_root_keeps_every_def(gate, module):
    dead, _ = gate
    assert not any(entry.endswith(" " + orphan(module)) for entry in dead)
