"""Attribution is execution-invariant: workers, caches and replay agree.

The whole value of critical-path attribution rests on it being a property
of the *workload*, not of how the grid happened to execute.  These tests
pin that: the timeline/critical-path export files and the ranked
attribution must be byte-identical sequentially and at 0/2/3 workers,
reproduce exactly on a warm-cache re-run, and survive trace replay.  On
the E20-style burst scenario the attribution must name the centralized
rendezvous node's inbound queue as the dominant tail contributor — the
paper's hop-count blind spot, now with a number attached.
"""

import json
from pathlib import Path

from repro.obs import export
from repro.obs.attr import attribute_export, diff_attribution
from repro.obs.spans import SpanRecorder
from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
    replay_trace,
    run_matrix,
    run_scenario,
)

TIME_MODEL = TimeModelSpec(
    default_link=LinkTiming(latency=0.0005, jitter=0.0001),
    node_service=0.0008,
)

SLO = SloSpec(latency_objective=0.01, latency_target=0.99,
              availability_target=0.999, window=0.5)

#: A small timed grid: both strategies, bursty arrivals, SLO attached.
GRID = MatrixSpec(
    name="attr-grid",
    topologies=("complete:12",),
    strategies=("checkerboard", "centralized"),
    base=ScenarioSpec(
        operations=120, clients=12, servers=3, ports=3, seed=29,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="burst", burst_size=30, burst_gap=0.05),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        time_model=TIME_MODEL,
        slo=SLO,
    ),
)


def burst_scenario() -> ScenarioSpec:
    """The E20 shape scaled down: bursts into a centralized server."""
    return ScenarioSpec(
        name="attr-burst", topology="complete:16", strategy="centralized",
        operations=300, clients=16, servers=4, ports=4, seed=2025,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="burst", burst_size=40, burst_gap=0.05),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        time_model=TIME_MODEL, slo=SLO,
    )


def _export_bytes(directory) -> dict:
    """Every cell file's bytes, keyed by name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(directory).glob("obs-cell-*.jsonl"))
    }


class TestWorkerInvariance:
    def test_exports_and_attribution_agree_across_worker_counts(self, tmp_path):
        digests, exports, attributions = {}, {}, {}
        for workers in (None, 0, 2, 3):
            label = "seq" if workers is None else f"w{workers}"
            obs_dir = tmp_path / label
            report, _ = run_matrix(GRID, workers=workers, obs_dir=obs_dir)
            digests[label] = report.digest()
            exports[label] = _export_bytes(obs_dir)
            attributions[label] = attribute_export(obs_dir)
        baseline = exports["seq"]
        assert any(b'"kind": "timeline"' in data for data in baseline.values())
        for label in ("w0", "w2", "w3"):
            assert digests[label] == digests["seq"]
            assert exports[label] == baseline, (
                f"cell export files at {label} differ from sequential"
            )
            assert attributions[label] == attributions["seq"]

    def test_warm_cache_rerun_reproduces_attribution(self, tmp_path):
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        cache_dir = tmp_path / "cache"
        run_matrix(GRID, workers=2, obs_dir=cold_dir, cache_dir=cache_dir)
        report, _ = run_matrix(
            GRID, workers=2, obs_dir=warm_dir, cache_dir=cache_dir
        )
        assert _export_bytes(warm_dir) == _export_bytes(cold_dir)
        assert attribute_export(warm_dir) == attribute_export(cold_dir)
        diff = diff_attribution(cold_dir, warm_dir)
        assert diff["overall"]["contributors"] == []
        assert diff["tail"]["contributors"] == []

    def test_slo_aggregates_appear_in_matrix_slices(self):
        report, _ = run_matrix(GRID)
        for label, row in report.by_strategy().items():
            assert "slo_breached_windows" in row, label
            assert "worst_latency_burn_rate" in row, label
            assert "first_breach_us" in row, label


class TestExemplarInvariants:
    def test_critical_path_telescopes_to_the_request_latency(self):
        result = run_scenario(burst_scenario())
        assert result.exemplars
        for record in result.exemplars:
            blamed = sum(entry[3] for entry in record["critical_path"])
            assert blamed == record["latency_us"], record["request"]

    def test_exemplars_are_the_slowest_and_sorted(self):
        result = run_scenario(burst_scenario())
        latencies = [record["latency_us"] for record in result.exemplars]
        assert latencies == sorted(latencies, reverse=True)
        # Nothing outside the reservoir is slower than its floor.
        summary = result.metrics.summary()
        assert latencies[0] <= summary["latency"]["max"]

    def test_exemplar_critical_path_sums_match_the_registry(self):
        # Over *all* requests the blamed time must equal the summed
        # latency — the registry's counter map is the same telescoping
        # decomposition, aggregated.
        result = run_scenario(burst_scenario())
        registry = result.metrics.registry
        blamed = sum(registry.counter_map("critical_path_us").values())
        timeline = registry.timeline("timeline", 500_000)
        assert blamed == timeline.total("latency_sum_us")

    def test_replay_reproduces_exemplars_and_attribution(self):
        first = run_scenario(burst_scenario())
        replayed = replay_trace(first.trace)
        assert replayed.to_dict() == first.to_dict()
        assert replayed.exemplars == first.exemplars
        assert (
            dict(replayed.metrics.registry.counter_map("critical_path_us"))
            == dict(first.metrics.registry.counter_map("critical_path_us"))
        )

    def test_untimed_runs_have_no_exemplars(self):
        from dataclasses import replace

        untimed = replace(burst_scenario(), time_model=None, slo=None)
        result = run_scenario(untimed)
        assert result.exemplars == []


class TestBurstAttributionHeadline:
    def test_central_inbound_queue_dominates_the_tail(self, tmp_path):
        result = run_scenario(burst_scenario())
        obs_dir = export.export_dir(tmp_path / "obs")
        export.write_cell(
            obs_dir, 0, {"name": "attr-burst"}, SpanRecorder(), result
        )
        attribution = attribute_export(obs_dir)
        top = attribution["tail"]["contributors"][0]
        # The barrier chain of every slow request runs through the
        # centralized rendezvous node's inbound service queue.
        assert top["key"].startswith("query:node_wait:")
        assert top["share"] >= 0.5, top
        # The same contributor leads overall, too.
        assert attribution["overall"]["contributors"][0]["key"] == top["key"]

    def test_slo_burn_shows_in_the_scenario_summary(self):
        result = run_scenario(burst_scenario())
        slo = result.summary()["slo"]
        assert slo["objective_us"] == 10_000
        assert slo["served"] == 300
        assert slo["latency_burn_rate"] > 1.0
        assert slo["first_breach_us"] == 0
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["summary"]["slo"] == slo
