"""The paper table: every claim holds, one test per row.

``repro.analysis.paper.CLAIMS`` is the one statement of the paper's results
(``python -m repro paper`` prints the same rows).  Rows that share an
experiment share one run of it, so the whole table costs one pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import paper

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


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
