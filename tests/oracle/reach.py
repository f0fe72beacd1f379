"""Which ``def`` under ``src/repro`` does a user surface actually call?

The reachability gate (``tests/integration/test_reachability.py``) reaches
by name, so a definition stays alive while another one shares its name.
This audit goes by calls: it runs each user surface (every example, ``python
-m repro paper`` with the extension's ``X`` rows, ``pytest benchmarks
tests/golden tests/unit/test_cli.py``, where ``benchmarks`` is the ledger's
smoke test), then ``pytest tests``, under a ``sys.settrace`` hook a
``sitecustomize`` on ``PYTHONPATH`` installs (not ``setprofile``: the ledger
smoke test's ``cProfile`` takes that hook mid-run), and prints every
definition no surface called: ``tests-only`` if a test did, else ``never``.
A traced run that exits non-zero stops it with an error naming the run.
Hypothesis
runs with a fixed seed, so one interpreter and one set of test tools list
the same definitions every time.  A subprocess that replaces ``PYTHONPATH``
runs untraced.  Run ``python tests/oracle/reach.py`` (stdlib only; about
two minutes).  CI compares its output, line numbers dropped, with
``tests/oracle/reach_expected.txt``.
"""

import ast, os, subprocess, sys, tempfile  # noqa: E401
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
HOOK = """
import os, sys, threading
_src, _out, _seen, _file = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set(), [0, None]
def _trace(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            if _file[0] != os.getpid():  # the first call, or a forked child
                _file[:] = [os.getpid(), open(os.path.join(_out, str(os.getpid())), "a", buffering=1)]
            _file[1].write(f"{code.co_filename}:{code.co_firstlineno}\\n")
sys.settrace(_trace)
threading.settrace(_trace)
"""
SURFACES = [
    *([str(example)] for example in sorted((ROOT / "examples").glob("*.py"))),
    ["-m", "repro", "paper"],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
     "benchmarks", "tests/golden", "tests/unit/test_cli.py"],
]
TESTS = [["-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]]


def called(hook_dir: str, runs) -> set:
    """``file:first line`` of every ``src/repro`` code object ``runs`` called.

    A run that exits non-zero stops the audit (``SystemExit`` naming it):
    what a crashed surface never got to call is not unreached.
    """
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, REACH_SRC=str(SRC), REACH_OUT=out,
                   PYTHONPATH=os.pathsep.join([hook_dir, str(ROOT / "src")]))
        for argv in runs:
            code = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            print(f"# exit {code}: {' '.join(argv)}", file=sys.stderr)
            if code:
                raise SystemExit(f"reach.py: traced run exited {code}: {' '.join(argv)}")
        return {line for log in Path(out).iterdir() for line in log.read_text().split()}


def definitions(node: ast.AST, path: Path, prefix: str = ""):
    """``(file:first line, "module.py:line qualname")`` of every ``def``;
    a decorated function's code starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            where = f"{path.relative_to(SRC)}:{child.lineno}"
            yield f"{path}:{first}", f"{where} {prefix}{child.name}"
            yield from definitions(child, path, f"{prefix}{child.name}.")
        else:
            name = child.name + "." if isinstance(child, ast.ClassDef) else ""
            yield from definitions(child, path, prefix + name)


def main() -> None:
    with tempfile.TemporaryDirectory() as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        user, tests = called(hook_dir, SURFACES), called(hook_dir, TESTS)
    for path in sorted(SRC.rglob("*.py")):
        for key, label in definitions(ast.parse(path.read_text("utf-8")), path):
            if key not in user:
                print(f"{'tests-only' if key in tests else 'never':<10} {label}")


if __name__ == "__main__":
    main()
