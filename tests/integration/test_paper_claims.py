"""The paper table: every claim holds, one test per row.

``repro.analysis.paper.CLAIMS`` is the one statement of the paper's results
and of what the extension adds to them (``python -m repro paper`` prints
the same rows, the ``X`` rows in a section of their own).  Rows that share
an experiment share one run of it, so the whole table costs one pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import paper

ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = str(ROOT / "src")
#: The paper's rows, group by group, in table order.
PAPER_GROUPS = {
    "E1": 10, "E2": 6, "E3": 10, "E4": 9, "E5": 8, "E6": 8, "E7": 6, "E8": 7,
    "E9": 9, "E10": 14, "E11": 5, "E12": 9, "E13": 14, "E14": 15, "A1": 3,
}


@pytest.mark.parametrize("claim", paper.CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(claim):
    measured, holds = paper.check(claim)
    assert holds, (
        f"{claim.id} {claim.section} {claim.statement}: measured {measured!r}, "
        f"expected {claim.relation} {claim.expected!r} (tolerance {claim.tolerance})"
    )


def test_ids_are_unique_and_relations_known():
    ids = [claim.id for claim in paper.CLAIMS]
    assert len(ids) == len(set(ids))
    assert {claim.relation for claim in paper.CLAIMS} <= {"==", "<=", ">=", "<", ">"}


def test_the_paper_rows_come_first_and_the_extension_rows_follow():
    ids = [claim.id for claim in paper.CLAIMS]
    paper_ids = [f"{group}.{k}" for group, count in PAPER_GROUPS.items()
                 for k in range(1, count + 1)]
    assert len(paper_ids) == 133
    assert ids[:133] == paper_ids
    # Unique, as every id is (test_ids_are_unique_and_relations_known).
    extension = ids[133:]
    assert extension and all(claim_id.startswith("X") for claim_id in extension)


def test_the_benchmarks_hold_only_the_ledger():
    # The extension's findings are rows here; ``benchmarks/`` measures cost.
    strays = [path.relative_to(ROOT).as_posix()
              for path in (ROOT / "benchmarks").rglob("test_*.py")
              if path.relative_to(ROOT / "benchmarks").parts[0] != "ledger"]
    assert strays == []


def test_importing_repro_computes_no_claim():
    # ``import repro`` leaves the table unimported, and importing the table
    # runs no experiment: each memoised run is still empty afterwards.
    probe = (
        "import sys, repro\n"
        "assert 'repro.analysis.paper' not in sys.modules\n"
        "from repro.analysis import paper\n"
        "runs = {claim.measure[0] for claim in paper.CLAIMS}\n"
        "assert all(run.cache_info().currsize == 0 for run in runs)\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe], check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
