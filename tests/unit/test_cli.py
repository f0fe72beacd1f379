"""The ``python -m repro`` command line: run, matrix, obs, replay.

Each subcommand is exercised through ``repro.cli.main`` with real files in
a temp directory: specs load from JSON, results and reports land where
asked, the replay verifier distinguishes byte-exact from diverged, and
bad input exits 2 instead of tracebacking.
"""

import json

import pytest

from repro.cli import main
from repro.obs.tools import summarize_export
from repro.workload import (
    ArrivalSpec,
    MatrixReport,
    MatrixSpec,
    ScenarioSpec,
    FaultRegimeSpec,
    run_matrix,
    run_scenario,
)

SPEC = ScenarioSpec(
    name="cli", topology="manhattan:3", strategy="manhattan",
    operations=60, clients=3, servers=3, ports=2,
    delivery_mode="unicast", seed=31,
    arrival=ArrivalSpec(kind="poisson", rate=300.0),
    faults=FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                           downtime=0.1),
)

MATRIX = MatrixSpec(
    name="cli-grid",
    topologies=("complete:9", "manhattan:3"),
    strategies=("checkerboard",),
    fault_regimes=(FaultRegimeSpec(),),
    base=ScenarioSpec(
        operations=40, clients=3, servers=3, ports=2,
        delivery_mode="unicast", seed=7,
        arrival=ArrivalSpec(kind="poisson", rate=300.0),
    ),
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC.to_dict()))
    return path


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(MATRIX.to_dict()))
    return path


class TestRun:
    def test_prints_result_and_writes_artifacts(
        self, spec_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "result.json"
        assert main([
            "run", str(spec_file), "--trace", str(trace), "--out", str(out),
        ]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == run_scenario(SPEC).to_dict()
        assert json.loads(out.read_text()) == printed
        assert trace.exists()

    def test_spec_round_trips_through_json(self, spec_file):
        assert ScenarioSpec.from_dict(
            json.loads(spec_file.read_text())
        ) == SPEC


class TestMatrix:
    def test_digest_mode_matches_engine(self, matrix_file, capsys):
        assert main([
            "matrix", str(matrix_file), "--digest", "--no-progress",
        ]) == 0
        report, _ = run_matrix(MATRIX)
        assert capsys.readouterr().out.strip() == report.digest()

    def test_report_file_and_tables(self, matrix_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main([
            "matrix", str(matrix_file), "--workers", "2",
            "--report", str(report_path), "--no-progress",
        ]) == 0
        output = capsys.readouterr().out
        assert "== by strategy ==" in output
        assert "availability floor" in output
        loaded = MatrixReport.from_path(report_path)
        expected, _ = run_matrix(MATRIX)
        assert loaded.digest() == expected.digest()

    def test_matrix_spec_round_trips_through_json(self, matrix_file):
        assert MatrixSpec.from_dict(
            json.loads(matrix_file.read_text())
        ) == MATRIX


class TestIncremental:
    def _digest(self, capsys) -> str:
        return capsys.readouterr().out.strip()

    def test_cache_dir_cold_then_warm_hits_everything(
        self, matrix_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert main([
            "matrix", str(matrix_file), "--digest", "--no-progress",
            "--cache-dir", str(cache),
        ]) == 0
        cold = capsys.readouterr()
        assert "cache: " in cold.err
        assert "hits=0" in cold.err
        assert main([
            "matrix", str(matrix_file), "--digest", "--no-progress",
            "--cache-dir", str(cache),
        ]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # identical digest line
        assert "hits=2" in warm.err  # every grid cell served from cache
        assert "misses=0" in warm.err

    def test_no_cache_overrides_cache_dir(
        self, matrix_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert main([
            "matrix", str(matrix_file), "--digest", "--no-progress",
            "--cache-dir", str(cache), "--no-cache",
        ]) == 0
        assert "cache: " not in capsys.readouterr().err
        assert not cache.exists()

    def test_repeat_reports_one_digest_per_run(self, matrix_file, capsys):
        assert main([
            "matrix", str(matrix_file), "--digest", "--no-progress",
            "--workers", "2", "--repeat", "2",
        ]) == 0
        captured = capsys.readouterr()
        report, _ = run_matrix(MATRIX)
        lines = [
            line for line in captured.err.splitlines()
            if line.startswith("run ")
        ]
        assert len(lines) == 2
        assert all(line.endswith(report.digest()) for line in lines)
        assert captured.out.strip() == report.digest()

    def test_repeat_below_one_exits_two(self, matrix_file):
        assert main([
            "matrix", str(matrix_file), "--no-progress", "--repeat", "0",
        ]) == 2


class TestReplay:
    def test_expect_verifies_byte_exact(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "result.json"
        main(["run", str(spec_file), "--trace", str(trace),
              "--out", str(out)])
        capsys.readouterr()
        assert main([
            "replay", str(trace), "--expect", str(out),
        ]) == 0
        assert json.loads(capsys.readouterr().out) == \
            json.loads(out.read_text())

    def test_expect_divergence_exits_one(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "result.json"
        main(["run", str(spec_file), "--trace", str(trace),
              "--out", str(out)])
        tampered = json.loads(out.read_text())
        tampered["summary"]["successes"] += 1
        out.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert main(["replay", str(trace), "--expect", str(out)]) == 1


class TestObs:
    def test_run_obs_export_then_summarize(self, spec_file, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert main(["run", str(spec_file), "--obs", str(obs_dir)]) == 0
        assert (obs_dir / "spans-cell-0000.jsonl").exists()
        assert (obs_dir / "metrics.jsonl").exists()
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        output = capsys.readouterr().out
        assert "cells: 1" in output
        assert "locate_hops" in output
        assert "request" in output  # the span breakdown section

    def test_summarize_json_matches_the_library(
        self, spec_file, tmp_path, capsys
    ):
        obs_dir = tmp_path / "obs"
        main(["run", str(spec_file), "--obs", str(obs_dir)])
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(
            json.dumps(summarize_export(obs_dir))
        )

    def test_matrix_obs_profile_then_diff(self, matrix_file, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for obs_dir in (dir_a, dir_b):
            assert main([
                "matrix", str(matrix_file), "--obs", str(obs_dir),
                "--profile", "--no-progress",
            ]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(dir_a)]) == 0
        assert "profile:" in capsys.readouterr().out
        # Two runs of the same grid export identical metrics and spans.
        assert main(["obs", "diff", str(dir_a), str(dir_b)]) == 0
        diff_text = capsys.readouterr().out
        assert diff_text.count("(no differences)") == 2
        assert main([
            "obs", "diff", str(dir_a), str(dir_b), "--json",
        ]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["metrics"] == {} and printed["spans"] == {}

    def test_summarize_empty_directory_exits_two(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["obs", "summarize", str(empty)]) == 2


class TestErrors:
    def test_missing_file_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_spec_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"operations": 0}))
        assert main(["run", str(bad)]) == 2

    def test_non_finite_rate_exits_two_naming_the_field(self, tmp_path, capsys):
        # ``json`` reads the bare token NaN; the spec validator must not.
        bad = tmp_path / "bad.json"
        bad.write_text('{"arrival": {"kind": "poisson", "rate": NaN}}')
        assert main(["run", str(bad)]) == 2
        assert "ArrivalSpec.rate must be finite" in capsys.readouterr().err

    def test_unknown_nested_key_exits_two_naming_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {**SPEC.to_dict(), "faults": {"kind": "flaps", "perod": 0.5}}
        ))
        assert main(["run", str(bad)]) == 2
        error = capsys.readouterr().err
        assert "unknown FaultRegimeSpec key(s) ['perod']" in error
        assert "'period'" in error

    def test_unknown_strategy_exits_two_not_traceback(self, tmp_path):
        # StrategyError is a MatchMakingError, not a ValueError; the CLI
        # must still classify it as bad input (exit 2, not a traceback, and
        # never exit 1 — that means --expect divergence).
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {**SPEC.to_dict(), "strategy": "no-such-strategy"}
        ))
        assert main(["run", str(bad)]) == 2

    def test_misspelled_time_model_key_exits_two_naming_the_key(
        self, spec_file, tmp_path, capsys
    ):
        # Every time-model field defaults: without the check this run would
        # price with the default link and report it with a straight face.
        model = tmp_path / "tm.json"
        model.write_text(json.dumps(
            {"default_link": {"latncy": 0.5}, "node_service": 0.001}
        ))
        assert main(["run", str(spec_file), "--time-model", str(model)]) == 2
        error = capsys.readouterr().err
        assert "unknown LinkTiming key(s) ['latncy']" in error
        assert "'latency'" in error  # ... and what would have been accepted
