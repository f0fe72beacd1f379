"""The analyzer run against its own repository — the gate CI enforces.

Two halves:

* the live ``src/repro`` tree must analyze to **zero unsuppressed
  findings** (the same invariant ``python -m repro analyze --strict``
  gates in CI), with every suppression carrying a reason;
* reverting the ``sorted(...)`` determinism fix in
  ``repro/strategies/hash_locate.py`` on a scratch copy must re-introduce a
  DET004 finding — proving the gate actually guards that fix.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis.static import analyze_paths

PACKAGE_DIR = Path(repro.__file__).resolve().parent

SORTED_FIX = "            for node in sorted(self.rendezvous_nodes(port), key=repr):\n"
UNSORTED_ORIGINAL = "            for node in self.rendezvous_nodes(port):\n"


@pytest.fixture(scope="module")
def session():
    """One analysis of the committed tree, shared by the clean-tree tests
    (they only read it; the mutation tests below analyze their own copy)."""
    return analyze_paths([PACKAGE_DIR])


class TestSelfAnalysis:
    def test_repo_has_zero_unsuppressed_findings(self, session):
        rendered = "\n".join(f.render() for f in session.findings)
        assert session.findings == [], (
            f"the committed tree must analyze clean:\n{rendered}"
        )
        assert session.files > 50, "self-run should cover the whole package"

    def test_every_suppression_carries_a_reason(self, session):
        for finding, reason in session.suppressed:
            assert reason.strip(), f"reasonless suppression: {finding.render()}"

    def test_driver_needs_no_wall_clock_pragmas(self, session):
        # The driver reads the clock only through the declared
        # ``repro.obs.profile.wall_clock`` doorway, so DET001 neither fires
        # nor needs pragma suppressions there anymore.
        driver_hits = [
            finding
            for finding in session.findings
            if finding.module == "repro.workload.driver"
        ] + [
            finding
            for finding, _ in session.suppressed
            if finding.module == "repro.workload.driver"
        ]
        assert driver_hits == [], (
            "driver wall-clock reads should route through wall_clock()"
        )


class TestSortedFixIsGuarded:
    def _copy_with_reverted_fix(self, tmp_path) -> Path:
        scratch = tmp_path / "repro"
        shutil.copytree(
            PACKAGE_DIR, scratch,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        strategy = scratch / "strategies" / "hash_locate.py"
        source = strategy.read_text()
        assert SORTED_FIX in source, (
            "expected the sorted(...) determinism fix in strategies/hash_locate.py; "
            "update this test if the surrounding code moved"
        )
        strategy.write_text(source.replace(SORTED_FIX, UNSORTED_ORIGINAL))
        return scratch

    def test_reverting_sorted_fix_trips_det004(self, tmp_path):
        scratch = self._copy_with_reverted_fix(tmp_path)
        session = analyze_paths([scratch])
        det004 = [f for f in session.new if f.rule == "DET004"]
        assert det004, (
            "removing sorted(...) from the rendezvous-node iteration must "
            "re-introduce a DET004 finding"
        )
        assert any(
            f.path.endswith("strategies/hash_locate.py") and "load_distribution" in f.symbol
            for f in det004
        )


class TestShardPayloadIsGuarded:
    def test_unpicklable_payload_field_trips_pkl001(self, tmp_path):
        # The shard payload is what crosses into worker processes; PKL001
        # must read its named fields.
        scratch = tmp_path / "repro"
        shutil.copytree(
            PACKAGE_DIR, scratch,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        runner = scratch / "exec" / "runner.py"
        source = runner.read_text()
        field = "    spool_path: Optional[str]\n"
        assert source.count(field) == 1
        runner.write_text(source.replace(
            field, field + "    on_cell: Optional[Callable] = None\n"
        ))
        pkl001 = [
            f for f in analyze_paths([scratch]).new if f.rule == "PKL001"
        ]
        assert len(pkl001) == 1, pkl001
        assert pkl001[0].path.endswith("exec/runner.py")
        assert "on_cell" in pkl001[0].snippet
