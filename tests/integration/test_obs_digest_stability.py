"""Observability is digest-neutral — the invariant everything rests on.

Spans carry logical clocks only, metrics lines are derived from the same
deterministic run, and the wall-clock ``profile`` section is excluded from
the canonical report form.  Therefore a matrix run with the full export
enabled (spans + metrics + profile) must produce a report digest
**byte-identical** to an observability-disabled run — sequentially and at
0, 2 and 3 workers — and the cell-level export files themselves must be
byte-identical between sequential and sharded runs, because file names key
on grid position, not on which process executed the cell.
"""

import json

from repro.obs import export
from repro.obs.tools import merged_registry
from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixSpec,
    ScenarioSpec,
    canonical_digest,
    run_matrix,
)

MATRIX = MatrixSpec(
    name="obs-digest",
    topologies=("complete:9", "manhattan:3", "ring:8"),
    strategies=("checkerboard", "hash-locate"),
    fault_regimes=(
        FaultRegimeSpec(),
        FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                        downtime=0.1),
    ),
    base=ScenarioSpec(
        operations=40, clients=3, servers=3, ports=2,
        delivery_mode="unicast", seed=83,
        arrival=ArrivalSpec(kind="poisson", rate=300.0),
    ),
)


def run_plain():
    report, _ = run_matrix(MATRIX)
    return report


def run_observed(obs_dir, workers=None):
    report, _ = run_matrix(
        MATRIX, workers=workers, obs_dir=obs_dir, profile=True
    )
    return report


class TestDigestStability:
    def test_observability_never_moves_the_digest(self, tmp_path):
        plain = run_plain()
        assert len(plain) == 12 and plain.skipped == []
        for workers in (None, 0, 2, 3):
            label = "seq" if workers is None else f"w{workers}"
            observed = run_observed(tmp_path / label, workers=workers)
            assert observed.digest() == plain.digest(), (
                f"observability export at workers={workers} changed the "
                f"report digest"
            )
            # Digest equality is not an accident of hashing: the canonical
            # dicts match, and the only extra section is the profile.
            assert observed.canonical_dict() == plain.canonical_dict()
            assert "profile" in observed.to_dict()
            assert "profile" not in observed.canonical_dict()

    def test_profile_round_trips_but_stays_out_of_the_canon(self, tmp_path):
        observed = run_observed(tmp_path / "obs")
        path = tmp_path / "report.json"
        observed.to_path(path)
        written = json.loads(path.read_text())
        assert written["profile"] == observed.to_dict()["profile"]
        del written["profile"]
        for cell in written["cells"]:
            cell["wall_seconds"] = 0.0
        assert canonical_digest(written) == observed.digest()
        # Serializing the canonical form is reproducible byte-for-byte.
        canonical = json.dumps(observed.canonical_dict(), sort_keys=True)
        assert canonical == json.dumps(run_plain().canonical_dict(),
                                       sort_keys=True)


class TestExportParity:
    """Sequential and sharded runs write the same cell-level artifacts."""

    def test_cell_files_are_byte_identical_across_worker_counts(
        self, tmp_path
    ):
        sequential_dir = tmp_path / "seq"
        run_observed(sequential_dir)
        for workers in (2, 3):
            parallel_dir = tmp_path / f"w{workers}"
            run_observed(parallel_dir, workers=workers)
            cells = sorted(sequential_dir.glob("obs-cell-*.jsonl"))
            assert len(cells) == 12
            for cell in cells:
                assert (parallel_dir / cell.name).read_bytes() == \
                    cell.read_bytes(), (
                    f"{cell.name} diverged at workers={workers}"
                )

    def test_profiles_label_every_participant(self, tmp_path):
        sequential_dir = tmp_path / "seq"
        run_observed(sequential_dir)
        labels = [
            p["label"] for p in export.load_export(sequential_dir)["profile"]
        ]
        assert labels == ["sequential"]
        parallel_dir = tmp_path / "par"
        run_observed(parallel_dir, workers=2)
        labels = [
            p["label"] for p in export.load_export(parallel_dir)["profile"]
        ]
        assert labels == ["parent", "shard-0", "shard-1"]

    def test_merged_export_metrics_equal_the_report(self, tmp_path):
        obs_dir = tmp_path / "obs"
        report = run_observed(obs_dir, workers=2)
        merged = merged_registry(export.load_export(obs_dir))
        total_requests = sum(
            cell.summary["requests"] for cell in report.cells
        )
        assert merged.counter("requests").value == total_requests
        assert merged.histogram("locate_hops").count == total_requests
