"""The bench-trajectory regression gate (``benchmarks/trajectory.py``).

The gate is a tiny program with a sharp contract: deterministic metrics
fail on any worsening beyond their (often zero) band, wall-clock metrics
only fail on a collapse, a metric the baseline never saw is skipped, and a
metric the bench file *lost* is itself a failure.  These tests drive
``check_trajectory`` and ``main`` against synthetic bench/baseline files —
no benchmark run involved — so the gate's logic is pinned independently of
the numbers it will gate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "trajectory",
    Path(__file__).resolve().parents[2] / "benchmarks" / "trajectory.py",
)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)


def bench_document(**overrides):
    """A minimal bench file touching a few tracked paths."""
    data = {
        "strategies": {
            "checkerboard": {
                "p95_locate_hops": 6,
                "p99_locate_hops": 8,
                "load_imbalance": 1.4,
                "ops_per_second": 10_000,
            },
        },
        "soak": {"cache_hit_rate": 0.8, "stale_retries": 120},
        "parallel": {"speedup": 2.5},
    }
    for path, value in overrides.items():
        node = data
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return data


class TestLookup:
    def test_walks_dotted_paths(self):
        data = bench_document()
        assert trajectory.lookup(data, "soak.cache_hit_rate") == 0.8
        assert trajectory.lookup(
            data, "strategies.checkerboard.p95_locate_hops"
        ) == 6

    def test_missing_paths_and_non_numbers_are_none(self):
        data = {"a": {"b": "text", "flag": True}}
        assert trajectory.lookup(data, "a.missing") is None
        assert trajectory.lookup(data, "a.b") is None
        assert trajectory.lookup(data, "a.b.deeper") is None
        # Booleans are ints in Python; the gate must not treat them as data.
        assert trajectory.lookup(data, "a.flag") is None


class TestCheckTrajectory:
    def test_identical_numbers_pass_every_band(self):
        bench = bench_document()
        baseline = trajectory.build_baseline(bench)
        failures, passes, skips = trajectory.check_trajectory(bench, baseline)
        assert failures == []
        assert len(passes) == 7  # the tracked paths bench_document covers
        assert len(passes) + len(skips) == len(trajectory.TRACKED)

    def test_zero_band_lower_metric_fails_on_any_increase(self):
        baseline = trajectory.build_baseline(bench_document())
        worse = bench_document(**{"strategies.checkerboard.p95_locate_hops": 7})
        failures, _, _ = trajectory.check_trajectory(worse, baseline)
        assert len(failures) == 1
        assert "p95_locate_hops" in failures[0]

    def test_tolerance_band_absorbs_small_regressions(self):
        baseline = trajectory.build_baseline(bench_document())
        # load_imbalance has a 5% band: 1.4 -> 1.46 passes, 1.6 fails.
        inside, _, _ = trajectory.check_trajectory(
            bench_document(**{"strategies.checkerboard.load_imbalance": 1.46}),
            baseline,
        )
        outside, _, _ = trajectory.check_trajectory(
            bench_document(**{"strategies.checkerboard.load_imbalance": 1.6}),
            baseline,
        )
        assert inside == []
        assert len(outside) == 1 and "load_imbalance" in outside[0]

    def test_wall_clock_metrics_only_fail_on_collapse(self):
        baseline = trajectory.build_baseline(bench_document())
        # ops_per_second has the 70% band: losing half passes...
        halved, _, _ = trajectory.check_trajectory(
            bench_document(
                **{"strategies.checkerboard.ops_per_second": 5_000}
            ),
            baseline,
        )
        assert halved == []
        # ... losing 90% does not.
        collapsed, _, _ = trajectory.check_trajectory(
            bench_document(
                **{"strategies.checkerboard.ops_per_second": 1_000}
            ),
            baseline,
        )
        assert len(collapsed) == 1

    def test_higher_is_better_direction(self):
        baseline = trajectory.build_baseline(bench_document())
        # cache_hit_rate (higher, 2% band): 0.8 -> 0.79 passes, 0.7 fails.
        ok, _, _ = trajectory.check_trajectory(
            bench_document(**{"soak.cache_hit_rate": 0.79}), baseline
        )
        bad, _, _ = trajectory.check_trajectory(
            bench_document(**{"soak.cache_hit_rate": 0.7}), baseline
        )
        assert ok == []
        assert len(bad) == 1 and "cache_hit_rate" in bad[0]

    def test_equal_direction_fails_on_any_move_either_way(self):
        # queue_visits has no better direction: the pricing loop must do
        # exactly the baseline's work.
        path = "latency.checkerboard.burst.queue_visits"
        baseline = trajectory.build_baseline(bench_document(**{path: 69_742}))
        same, _, _ = trajectory.check_trajectory(
            bench_document(**{path: 69_742}), baseline
        )
        assert same == []
        for moved in (69_741, 69_743):
            failures, _, _ = trajectory.check_trajectory(
                bench_document(**{path: moved}), baseline
            )
            assert len(failures) == 1 and "queue_visits" in failures[0]
        # A zero baseline gates too (lookup keeps 0, it is not "absent").
        drops = "latency.checkerboard.burst.message_timeouts"
        baseline = trajectory.build_baseline(bench_document(**{drops: 0}))
        failures, _, _ = trajectory.check_trajectory(
            bench_document(**{drops: 1}), baseline
        )
        assert len(failures) == 1 and "message_timeouts" in failures[0]

    def test_unbaselined_metric_skips_lost_metric_fails(self):
        bench = bench_document()
        baseline = trajectory.build_baseline(bench)
        # incremental.warm_speedup is tracked but absent from both: a skip.
        _, _, skips = trajectory.check_trajectory(bench, baseline)
        assert any("incremental.warm_speedup" in line for line in skips)
        # A metric the baseline recorded but the bench file lost: a failure.
        lost = bench_document()
        del lost["parallel"]
        failures, _, _ = trajectory.check_trajectory(lost, baseline)
        assert any("parallel.speedup" in line and "missing" in line
                   for line in failures)

    def test_build_baseline_keeps_only_tracked_numbers(self):
        bench = bench_document()
        bench["strategies"]["checkerboard"]["untracked"] = 999
        baseline = trajectory.build_baseline(bench)
        assert "untracked" not in baseline["strategies"]["checkerboard"]
        assert baseline["parallel"] == {"speedup": 2.5}


class TestMain:
    def _paths(self, tmp_path, bench_data):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(bench_data))
        baseline = tmp_path / "baseline.json"
        return bench, baseline

    def test_update_then_gate_round_trip(self, tmp_path, capsys):
        bench, baseline = self._paths(tmp_path, bench_document())
        assert trajectory.main([
            "--bench", str(bench), "--baseline", str(baseline), "--update",
        ]) == 0
        assert json.loads(baseline.read_text()) == \
            trajectory.build_baseline(bench_document())
        assert trajectory.main(
            ["--bench", str(bench), "--baseline", str(baseline)]
        ) == 0
        out = capsys.readouterr().out
        assert "inside their bands" in out

    def test_regression_exits_one_with_advice(self, tmp_path, capsys):
        bench, baseline = self._paths(tmp_path, bench_document())
        trajectory.main(
            ["--bench", str(bench), "--baseline", str(baseline), "--update"]
        )
        bench.write_text(json.dumps(
            bench_document(**{"strategies.checkerboard.p99_locate_hops": 11})
        ))
        assert trajectory.main(
            ["--bench", str(bench), "--baseline", str(baseline)]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL: strategies.checkerboard.p99_locate_hops" in out
        assert "--update" in out  # tells the developer the accept path

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        baseline = tmp_path / "baseline.json"
        assert trajectory.main(
            ["--bench", str(missing), "--baseline", str(baseline)]
        ) == 2
        bench = tmp_path / "bench.json"
        bench.write_text("{not json")
        assert trajectory.main(
            ["--bench", str(bench), "--baseline", str(baseline)]
        ) == 2
        # A valid bench but an unreadable baseline is also exit 2.
        bench.write_text(json.dumps(bench_document()))
        assert trajectory.main(
            ["--bench", str(bench), "--baseline", str(missing)]
        ) == 2


class TestCommittedBaseline:
    """The repo's own baseline must stay gateable against the repo's own
    bench record — otherwise CI is red on an untouched checkout."""

    def test_repo_bench_passes_the_committed_baseline(self):
        root = Path(__file__).resolve().parents[2]
        bench = json.loads((root / "BENCH_workload.json").read_text())
        baseline = json.loads(
            (root / "benchmarks" / "trajectory_baseline.json").read_text()
        )
        failures, passes, _ = trajectory.check_trajectory(bench, baseline)
        assert failures == []
        assert passes  # the gate is not vacuously green
