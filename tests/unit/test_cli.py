"""The ``python -m repro`` command line: paper, run, matrix, obs, replay.

Each subcommand is exercised through ``repro.cli.main`` with real files in
a temp directory: specs load from JSON, results and reports land where
asked, the replay verifier distinguishes byte-exact from diverged, and
bad input exits 2 instead of tracebacking.
"""

import dataclasses
import json

import pytest

from repro.codec import decode, encode
from repro.analysis import paper
from repro.cli import main
from repro.obs.tools import summarize_export
from repro.simtime import TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    MatrixSpec,
    ScenarioSpec,
    FaultRegimeSpec,
    canonical_digest,
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
    path.write_text(json.dumps(encode(SPEC)))
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
        assert decode(ScenarioSpec, json.loads(spec_file.read_text())) == SPEC


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
        written = json.loads(report_path.read_text())
        for cell in written["cells"]:
            cell["wall_seconds"] = 0.0  # as MatrixReport.canonical_dict does
        expected, _ = run_matrix(MATRIX)
        assert canonical_digest(written) == expected.digest()

    def test_matrix_spec_round_trips_through_json(self, matrix_file):
        assert decode(MatrixSpec, json.loads(matrix_file.read_text())) == MATRIX


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

    def test_no_cache_is_not_a_flag(self, matrix_file, tmp_path, capsys):
        # --cache-dir alone turns the cache on; there is no flag to cancel it.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "matrix", str(matrix_file), "--digest", "--no-progress",
                "--cache-dir", str(tmp_path / "cache"), "--no-cache",
            ])
        assert exit_info.value.code == 2
        assert "--no-cache" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_a_poisoned_cache_dir_exits_two_naming_it(self, tmp_path, capsys):
        grid, cache = tmp_path / "grid.json", tmp_path / "cache"
        grid.write_text(json.dumps(dataclasses.replace(
            MATRIX, name="p", topologies=("complete:9",),
            strategies=("checkerboard", "centralized"),
        ).to_dict()))
        args = ["matrix", str(grid), "--digest", "--no-progress",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        # Checkerboard served, centralized recomputed: the warm-up replay tells.
        for entry in cache.rglob("*.json"):
            payload = json.loads(entry.read_text())
            if payload["cell"]["strategy"] == "checkerboard":
                payload["cell"]["summary"]["requests"] += 1
                entry.write_text(json.dumps(payload))
            else:
                entry.unlink()
        capsys.readouterr()
        assert main(args) == 2
        assert ("error: cache entry for cell 'p/complete:9/checkerboard/none' "
                "does not match its recomputation — the cache dir "
                f"{cache} is poisoned") in capsys.readouterr().err

    def test_repeat_below_one_exits_two(self, matrix_file):
        assert main([
            "matrix", str(matrix_file), "--no-progress", "--repeat", "0",
        ]) == 2


class TestPaper:
    def test_prints_every_claim_once_in_table_order(self, capsys):
        assert main(["paper"]) == 0
        output = capsys.readouterr().out
        ids = [claim.id for claim in paper.CLAIMS]
        printed = [
            line.split()[0] for line in output.splitlines()
            if line.split() and line.split()[0] in ids
        ]
        assert printed == ids
        assert f"{len(ids)} of {len(ids)} claims hold" in output

    def test_a_failing_claim_exits_one_naming_it_and_its_measurement(
        self, monkeypatch, capsys
    ):
        claims = [
            claim._replace(expected=14.0) if claim.id == "E5.3" else claim
            for claim in paper.CLAIMS
        ]
        monkeypatch.setattr(paper, "CLAIMS", tuple(claims))
        assert main(["paper"]) == 1
        output = capsys.readouterr().out
        assert "FAILED E5.3: measured 13, expected == 14" in output
        assert output.count("FAILED") == 1


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


    def test_a_cell_trace_replays_to_its_report_entry(
        self, matrix_file, tmp_path, capsys
    ):
        traces, report = tmp_path / "traces", tmp_path / "report.json"
        assert main(["matrix", str(matrix_file), "--traces", str(traces),
                     "--report", str(report), "--no-progress"]) == 0
        assert sorted(p.name for p in traces.iterdir()) == ["cell-0000.jsonl", "cell-0001.jsonl"]
        capsys.readouterr()
        assert main(["replay", str(traces / "cell-0001.jsonl")]) == 0
        replayed = json.loads(capsys.readouterr().out)
        cell = json.loads(report.read_text())["cells"][1]
        assert replayed["summary"] == cell["summary"]
        assert replayed["spec"]["topology"] == cell["topology"] == "manhattan:3"


def timed_export(tmp_path, seed):
    """``repro run --obs`` of :data:`SPEC` with a time model and ``seed``."""
    spec_path, obs_dir = tmp_path / f"{seed}.json", tmp_path / f"obs-{seed}"
    timed = dataclasses.replace(SPEC, seed=seed, time_model=TimeModelSpec())
    spec_path.write_text(json.dumps(encode(timed)))
    assert main(["run", str(spec_path), "--obs", str(obs_dir)]) == 0
    return str(obs_dir)


class TestObs:
    def test_attribute_prints_each_critical_path_table(self, tmp_path, capsys):
        obs_dir = timed_export(tmp_path, 31)
        capsys.readouterr()
        assert main(["obs", "attribute", obs_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["obs", "attribute", obs_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        overall, tail = report["overall"], report["tail"]
        assert lines[0].startswith(f"latency: count={SPEC.operations}  p50=")
        assert lines[1] == f"critical path, all requests (total {overall['total_us']:,} us):"
        top = overall["contributors"][0]
        assert lines[2].strip().startswith(top["key"])  # keys hold spaces
        assert lines[2].split()[-3:] == [
            f"{top['us']:,}", "us", f"{100 * top['share']:.2f}%",
        ]
        assert (f"critical path, slowest {tail['exemplars']} exemplars "
                f"(total {tail['total_us']:,} us):") in lines

    def test_diff_attribute_ranks_what_moved(self, tmp_path, capsys):
        dirs = [timed_export(tmp_path, seed) for seed in (31, 32)]
        capsys.readouterr()
        assert main(["obs", "diff", *dirs, "--attribute", "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert main(["obs", "diff", *dirs, "--attribute"]) == 0
        lines = capsys.readouterr().out.splitlines()
        latency, moved = diff["latency"], diff["overall"]["contributors"]
        assert lines[0] == (
            f"p99: {latency['a']['p99']}us -> {latency['b']['p99']}us"
            f"  ({latency['delta_p99_us']:+,}us)"
        )
        assert moved, "two seeds must price differently"
        assert lines[2].strip().startswith(moved[0]["key"])
        assert lines[2].split()[-5:] == [
            f"{moved[0]['a_us']:,}", "->", f"{moved[0]['b_us']:,}", "us",
            f"({moved[0]['delta_us']:+,})",
        ]

    def test_run_obs_export_then_summarize(self, spec_file, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert main(["run", str(spec_file), "--obs", str(obs_dir)]) == 0
        assert [p.name for p in obs_dir.iterdir()] == ["obs-cell-0000.jsonl"]
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

    def test_summarize_a_timed_export_prints_its_timeline(
        self, tmp_path, capsys
    ):
        spec_path, obs_dir = tmp_path / "timed.json", tmp_path / "obs"
        timed = dataclasses.replace(SPEC, time_model=TimeModelSpec())
        spec_path.write_text(json.dumps(encode(timed)))
        assert main(["run", str(spec_path), "--obs", str(obs_dir)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        printed = next(row[1:] for row in rows if row[:1] == ["timeline"])
        timeline = summarize_export(obs_dir)["latency"]["timeline"]
        assert printed == [f"{key}={value}" for key, value in timeline.items()]
        assert timeline["windows"] >= 1
        assert timeline["served"] == SPEC.operations

    def test_diff_of_two_seeds_prints_each_change_before_and_after(
        self, tmp_path, capsys
    ):
        dirs = []
        for seed in (31, 32):
            spec_path, obs_dir = tmp_path / f"{seed}.json", tmp_path / str(seed)
            spec_path.write_text(
                json.dumps(encode(dataclasses.replace(SPEC, seed=seed)))
            )
            assert main(["run", str(spec_path), "--obs", str(obs_dir)]) == 0
            dirs.append(str(obs_dir))
        capsys.readouterr()
        assert main(["obs", "diff", *dirs, "--json"]) == 0
        delta = json.loads(capsys.readouterr().out)
        assert main(["obs", "diff", *dirs]) == 0
        rows = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }

        def changed(tree, prefix=""):
            for key, value in tree.items():
                if isinstance(value, dict) and set(value) != {"a", "b"}:
                    yield from changed(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        def at(summary, path):
            for part in path.split("."):
                summary = summary[part]
            return str(summary)

        before, after = (summarize_export(path) for path in dirs)
        checked = 0
        for section in ("metrics", "spans"):
            for path in changed(delta[section]):
                assert rows[path].split()[1:4] == [
                    at(before[section], path), "->", at(after[section], path),
                ], path
                checked += 1
        assert checked, "two seeds must export different runs"

    def test_summarize_empty_directory_exits_two(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["obs", "summarize", str(empty)]) == 2

    def test_a_reused_directory_holds_only_the_last_run(self, tmp_path, capsys):
        grid = MatrixSpec(
            name="reuse", topologies=("complete:9",),
            strategies=("checkerboard", "centralized"),
            base=ScenarioSpec(operations=50, clients=3, servers=3, ports=2),
        )
        obs_dir = tmp_path / "exp"
        for strategies, extra in ((2, ["--profile"]), (1, [])):
            path = tmp_path / f"grid{strategies}.json"
            payload = grid.to_dict()
            payload["strategies"] = payload["strategies"][:strategies]
            path.write_text(json.dumps(payload))
            assert main([
                "matrix", str(path), "--obs", str(obs_dir), "--no-progress",
                *extra,
            ]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells"] == 1
        assert summary["spans"]["request"]["count"] == 50
        assert "profile" not in summary

    def test_a_torn_export_exits_two_naming_file_and_line(
        self, spec_file, tmp_path, capsys
    ):
        obs_dir = tmp_path / "obs"
        main(["run", str(spec_file), "--obs", str(obs_dir)])
        cell = obs_dir / "obs-cell-0000.jsonl"
        lines = cell.read_bytes().count(b"\n")
        cell.write_bytes(cell.read_bytes()[:-10])
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir)]) == 2
        assert f"error: {cell}:{lines}: " in capsys.readouterr().err


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

    def test_mistyped_scalar_exits_two_naming_the_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**encode(SPEC), "ports": "2"}))
        assert main(["run", str(bad)]) == 2
        assert "ScenarioSpec.ports must be int, got str '2'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, error", [
        ("run", [], "ScenarioSpec must be an object, got list []"),
        ("run", {"slo": []}, "ScenarioSpec.slo must be an object or null, got list []"),
        ("matrix", {"topologies": [5]}, "MatrixSpec.topologies[0] must be str, got int 5"),
        ("matrix", {"base": 5}, "MatrixSpec.base must be an object, got int 5"),
        ("matrix", {"time_models": [5]},
         "MatrixSpec.time_models[0] must be an object or null, got int 5"),
        ("matrix", {"name": 5}, "MatrixSpec.name must be str, got int 5"),
    ], ids=["run-list", "run-slo-list", "matrix-topology-int", "matrix-base-int",
            "matrix-time-model-int", "matrix-name-int"])
    def test_a_malformed_spec_exits_two_naming_the_path(
        self, tmp_path, capsys, command, payload, error
    ):
        # These used to end in a traceback deep inside the run, or (the
        # name) to run as "5".
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_analyze_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err

    def test_unknown_nested_key_exits_two_naming_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {**encode(SPEC), "faults": {"kind": "flaps", "perod": 0.5}}
        ))
        assert main(["run", str(bad)]) == 2
        error = capsys.readouterr().err
        assert "unknown FaultRegimeSpec key(s) ['perod']" in error
        assert "'period'" in error

    def test_unknown_strategy_exits_two_not_traceback(self, tmp_path):
        # Bad input: exit 2, not a traceback, and never exit 1 — that means
        # --expect divergence.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {**encode(SPEC), "strategy": "no-such-strategy"}
        ))
        assert main(["run", str(bad)]) == 2

    def test_misspelled_matrix_strategy_exits_two_naming_it(
        self, tmp_path, capsys
    ):
        # Not "skipped as incompatible" with exit 0 and one strategy fewer.
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {**MATRIX.to_dict(), "strategies": ["checkerboard", "checkerbaord"]}
        ))
        assert main(["matrix", str(grid), "--no-progress"]) == 2
        assert "unknown strategy 'checkerbaord'" in capsys.readouterr().err

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

    def test_reversed_link_override_exits_two_naming_the_canonical_key(
        self, spec_file, tmp_path, capsys
    ):
        model = tmp_path / "tm.json"
        model.write_text(json.dumps(
            {"link_overrides": [["1<->0", {"latency": 0.5}]]}
        ))
        assert main(["run", str(spec_file), "--time-model", str(model)]) == 2
        assert "'0<->1'" in capsys.readouterr().err
