"""Digest neutrality of the time-model layer: untimed bytes never move.

``repro.simtime`` is opt-in.  With ``time_model=None`` (the default) the
serialized spec, the result dict, the trace and the matrix report must be
byte-for-byte what they were before the subsystem existed — the pinned
digests (``tests/golden/parity.json``) were captured on the pre-simtime
tree and freeze that contract.  If any of them moves, the time model has leaked into untimed
runs, which breaks every stored trace, cache entry and baseline in the
wild.

The timed half of the contract is pinned too: attaching a model keeps the
run deterministic (same digest on rerun and on replay) and prices the
*same* behavior — operation counts and hop statistics are identical to
the untimed run, only latency sections appear.
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.codec import decode, encode
from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
    replay_trace,
    run_matrix,
    run_scenario,
)
from repro.workload.trace import canonical_digest
from trace_text import dumped

#: The pinned digests, in ``tests/golden/parity.json``: ``simtime_untimed``
#: was first captured on the pre-simtime tree, ``simtime_timed`` pins the
#: timed path.  These move only when the simulator's observable behavior
#: deliberately changes.
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "parity.json"


def pinned(entry: str) -> dict:
    """One golden entry, read when a test needs it."""
    return json.loads(GOLDEN.read_text())[entry]


def pinned_scenario() -> ScenarioSpec:
    """A busy untimed scenario: faults, churn, zipf, unicast routing."""
    return ScenarioSpec(
        name="diff-pin",
        topology="manhattan:4",
        strategy="checkerboard",
        operations=400,
        clients=8,
        servers=4,
        ports=4,
        seed=7,
        delivery_mode="unicast",
        arrival=ArrivalSpec(kind="poisson", rate=300.0),
        popularity=PopularitySpec(kind="zipf"),
        churn=ChurnSpec(kind="mixed", rate=2.0),
        faults=FaultRegimeSpec(kind="waves", events=2, size=2),
    )


def pinned_grid() -> MatrixSpec:
    return MatrixSpec(
        name="diff-grid",
        topologies=("complete:16", "ring:12"),
        strategies=("checkerboard", "centralized"),
        fault_regimes=(
            FaultRegimeSpec(),
            FaultRegimeSpec(kind="flaps", events=2),
        ),
        base=ScenarioSpec(operations=200, clients=6, servers=4, ports=4,
                          seed=11),
    )


class TestUntimedBytesNeverMove:
    def test_scenario_spec_serializes_without_a_time_model_key(self):
        payload = encode(pinned_scenario())
        assert "time_model" not in payload
        assert decode(ScenarioSpec, payload).time_model is None

    def test_matrix_spec_serializes_without_a_time_models_key(self):
        payload = pinned_grid().to_dict()
        assert "time_models" not in payload
        assert decode(MatrixSpec, payload).time_models == ()

    def test_only_a_missing_or_null_time_model_is_untimed(self):
        # ``{}`` is every default (1 ms links), as ``repro run --time-model``
        # reads the same file — not an untimed run.
        assert decode(ScenarioSpec, {"time_model": {}}).time_model == \
            TimeModelSpec()
        assert decode(ScenarioSpec, {"time_model": None}).time_model is None
        assert decode(ScenarioSpec, {"slo": {}}).slo == SloSpec()

    def test_an_empty_time_model_axis_entry_is_a_timed_column(self):
        grid = decode(MatrixSpec, {"time_models": [{}, None]})
        assert grid.time_models == (TimeModelSpec(), None)

    def test_untimed_result_and_trace_digests_are_pinned(self):
        result = run_scenario(pinned_scenario())
        assert canonical_digest(result.to_dict()) == pinned("simtime_untimed")["result_digest"]
        assert canonical_digest(dumped(result.trace)) == pinned("simtime_untimed")["trace_digest"]

    def test_untimed_planner_events_are_pinned(self):
        # WorkloadResult.to_dict() leaves plan_cache out, so the planner's
        # hit/miss events of a scenario run are pinned on their own.
        assert run_scenario(pinned_scenario()).plan_cache == \
            pinned("simtime_untimed")["plan_cache"]

    def test_untimed_summary_has_no_latency_sections(self):
        result = run_scenario(pinned_scenario())
        summary = result.metrics.summary()
        assert "latency" not in summary
        assert "queues" not in summary

    def test_untimed_report_digest_is_pinned(self):
        report, _ = run_matrix(pinned_grid())
        assert report.digest() == pinned("simtime_untimed")["report_digest"]


class TestTimedRunsStayDeterministic:
    MODEL = TimeModelSpec(
        default_link=LinkTiming(latency=0.002, jitter=0.001),
        node_service=0.0004,
    )

    def _timed_spec(self) -> ScenarioSpec:
        return replace(pinned_scenario(), time_model=self.MODEL)

    def test_rerun_and_replay_are_byte_identical(self):
        first = run_scenario(self._timed_spec())
        second = run_scenario(self._timed_spec())
        assert first.to_dict() == second.to_dict()
        replayed = replay_trace(first.trace)
        assert replayed.to_dict() == first.to_dict()
        assert dumped(replayed.trace) == dumped(first.trace)

    def test_pricing_does_not_change_behavior(self):
        # The overlay observes messages; it must not alter what happens.
        untimed = run_scenario(pinned_scenario())
        timed = run_scenario(self._timed_spec())
        u, t = untimed.metrics.summary(), timed.metrics.summary()
        assert t["requests"] == u["requests"]
        assert t["successes"] == u["successes"]
        assert t["request_hops"] == u["request_hops"]
        assert t["locate_hops"] == u["locate_hops"]
        assert t["load"] == u["load"]
        assert "latency" in t and "queues" in t

    def test_spec_round_trips_with_model_attached(self):
        spec = self._timed_spec()
        payload = encode(spec)
        assert payload["time_model"] == encode(self.MODEL)
        assert decode(ScenarioSpec, payload) == spec


class TestTimedGoldenPins:
    """Every pricing branch ``timed_burst`` does not take, pinned by literal:
    multi-hop surviving paths (unicast, rerouted by two crash waves mid-run),
    a capacity-2 default link, a jitter-free slow link override, a
    zero-service node override, hundreds of queue-wait timeout drops,
    all-dropped batches that end a request's pipeline, and an armed SLO.
    The entry ``simtime_timed`` was first captured before the overlay's
    pricing loop was rewritten around flat event records: rerun, replay
    and worker parity check the timed path only against itself."""

    MODEL = TimeModelSpec(
        default_link=LinkTiming(0.0005, 0.0002, capacity=2),
        node_service=0.0006,
        timeout=0.002,
        link_overrides=(("(0, 0)<->(0, 1)", LinkTiming(0.003, 0.0, 1)),),
        node_overrides=(("(1, 1)", 0.0),),
    )

    def _golden_spec(self) -> ScenarioSpec:
        return replace(
            pinned_scenario(),
            operations=600,
            arrival=ArrivalSpec(kind="burst", burst_size=40, burst_gap=0.05),
            time_model=self.MODEL,
            slo=SloSpec(latency_objective=0.005, window=0.05),
        )

    def test_result_exemplars_and_registry_are_pinned(self):
        result = run_scenario(self._golden_spec())
        golden = pinned("simtime_timed")
        assert result.metrics.message_timeouts == golden["message_timeouts"]
        assert canonical_digest(result.to_dict()) == golden["result_digest"]
        assert canonical_digest(result.exemplars) == golden["exemplars_sha256"]
        # Every histogram bucket, every timeline window (the explicit
        # ``admitted: 0`` / ``dropped: 0`` keys included), critical_path_us
        # and link_busy_us.
        assert (
            canonical_digest(result.metrics.registry.to_dict())
            == golden["registry_sha256"]
        )

    def test_the_scenario_takes_the_branches_it_claims(self):
        result = run_scenario(self._golden_spec())
        registry = result.metrics.registry.to_dict()
        assert "(0, 0)<->(0, 1)" in registry["link_busy_us"]["counts"]
        windows = registry["timeline"]["windows"]
        assert any(fields.get("dropped") for _, fields in windows)
        assert all("admitted" in fields and "dropped" in fields
                   for _, fields in windows if "depth_peak" in fields)
        kinds = {key.split(":")[1]
                 for key in registry["critical_path_us"]["counts"]}
        assert kinds == {"link_wait", "link_xfer", "node_wait", "node_service"}
        # A first batch that lost every message ends the pipeline at the
        # arrival instant: those requests sit in the lowest latency bucket.
        buckets = dict(
            map(tuple, registry["request_latency_us"]["buckets"])
        )
        assert buckets[1] > 100
        assert len(windows) == 15
        assert result.metrics.summary()["slo"]["served"] == 600
