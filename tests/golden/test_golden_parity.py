"""Golden parity: the program's observable output, pinned in one file.

``parity.json`` next to this module holds what a change to the simulator
must not move by accident:

* the CI smoke grid (untimed) and the CI timed grid: report digest and
  every cell's ``plan_cache``, at 1 and at 2 workers;
* sha256 of every ``obs-cell-NNNN.jsonl`` the timed grid exports, at 1 and
  at 2 workers;
* sha256 of ``python -m repro paper`` and of every example's stdout, with
  the lines :data:`WALL_CLOCK_LINE` matches left out;
* the digests ``tests/integration/test_simtime_differential.py`` and
  ``test_hashseed_differential.py`` assert (they read them from here).

An entry moves only when behaviour changes on purpose, and the change
names each moved entry.  Regenerate every entry with::

    PYTHONPATH=src python tests/golden/test_golden_parity.py
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.codec import decode
from repro.analysis import paper
from repro.workload import MatrixSpec, run_matrix, run_scenario
from repro.workload.trace import canonical_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "parity.json"
#: A stdout line with a wall-clock figure (``workload_soak``'s req/s).
WALL_CLOCK_LINE = re.compile(r"\breq/s\b")

GRIDS = {
    # The observability job's ``ci-grid.json``.
    "ci_smoke_grid": {
        "name": "ci-smoke",
        "topologies": ["complete:36", "manhattan:6", "hypercube:5"],
        "strategies": ["checkerboard", "hash-locate", "centralized"],
        "base": {
            "operations": 120, "clients": 12, "servers": 8, "ports": 4,
            "delivery_mode": "unicast", "seed": 1717,
            "arrival": {"kind": "poisson", "rate": 1500.0},
            "popularity": {"kind": "zipf", "zipf_exponent": 1.1},
        },
    },
    # The timed-run job's ``ci-timed-grid.json``.
    "ci_timed_grid": {
        "name": "ci-timed-grid",
        "topologies": ["manhattan:4", "complete:16"],
        "strategies": ["checkerboard", "centralized"],
        "time_models": [None, {
            "default_link": {"latency": 0.001, "jitter": 0.0005, "capacity": 2},
            "node_service": 0.0004, "timeout": 0.002,
        }],
        "base": {
            "operations": 100, "clients": 6, "servers": 4, "ports": 4,
            "seed": 1719, "arrival": {"kind": "poisson", "rate": 500.0},
        },
    },
}


def golden():
    return json.loads(GOLDEN.read_text())


def grid_entry(name, workers):
    report, _ = run_matrix(decode(MatrixSpec, GRIDS[name]), workers=workers)
    cells = [dict(sorted(cell.plan_cache.items())) for cell in report.cells]
    return {"digest": report.digest(), "plan_cache": cells}


def timed_obs_cells(workers):
    """sha256 of every cell file the CI timed grid exports with ``--obs``."""
    with tempfile.TemporaryDirectory() as obs_dir:
        run_matrix(decode(MatrixSpec, GRIDS["ci_timed_grid"]),
                   workers=workers, obs_dir=obs_dir)
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(obs_dir).glob("obs-cell-*.jsonl"))}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def paper_sha256():
    """What ``python -m repro paper`` prints, hashed."""
    return sha256(paper.render()[0] + "\n")


def example_sha256(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, f"{path.name}: {proc.stderr}"
    return sha256("".join(line for line in proc.stdout.splitlines(True)
                          if not WALL_CLOCK_LINE.search(line)))


def examples_sha256():
    # Reverse order starts the slowest (uucp_name_server.py) at once.
    paths = sorted((ROOT / "examples").glob("*.py"), reverse=True)
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip((path.name for path in paths),
                        pool.map(example_sha256, paths)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ci_grids_are_pinned(name, workers):
    assert grid_entry(name, workers) == golden()[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_the_timed_grid_obs_cell_files_are_pinned(workers):
    assert timed_obs_cells(workers) == golden()["ci_timed_grid_obs_cells"]


def test_the_paper_table_is_pinned():
    assert paper_sha256() == golden()["paper_sha256"]


def test_every_example_prints_what_is_pinned():
    assert examples_sha256() == golden()["examples_sha256"]


def regenerate():
    """Measure every entry at this tree's behaviour and rewrite the file."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "tests" / "integration")]
    import test_hashseed_differential as hashseed
    import test_simtime_differential as simtime

    entries = {name: grid_entry(name, 1) for name in GRIDS}
    assert all(grid_entry(name, 2) == entries[name] for name in GRIDS)
    entries["ci_timed_grid_obs_cells"] = timed_obs_cells(1)
    assert timed_obs_cells(2) == entries["ci_timed_grid_obs_cells"]
    entries["paper_sha256"] = paper_sha256()
    entries["examples_sha256"] = examples_sha256()
    untimed = run_scenario(simtime.pinned_scenario())
    entries["simtime_untimed"] = {
        "result_digest": untimed.digest(),
        "trace_digest": untimed.trace.digest(),
        "plan_cache": dict(sorted(untimed.plan_cache.items())),
        "report_digest": run_matrix(simtime.pinned_grid())[0].digest(),
    }
    timed = run_scenario(simtime.TestTimedGoldenPins()._golden_spec())
    entries["simtime_timed"] = {
        "result_digest": timed.digest(),
        "exemplars_sha256": canonical_digest(timed.exemplars),
        "registry_sha256": canonical_digest(timed.metrics.registry.to_dict()),
        "message_timeouts": timed.metrics.message_timeouts,
    }
    outcome = hashseed.run_under_seed("0")
    entries["hashseed"] = {key: outcome[key] for key in hashseed.PINNED_KEYS}
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
