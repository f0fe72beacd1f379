"""Timed workloads end to end: congestion, replay, matrix parity.

The scenario here is the one the time model exists for: an open-loop
Poisson stream squeezed through a deliberately congested link.  The
tests pin the full determinism contract — a recorded timed run replays
byte-exact with its latency histogram equal bucket for bucket, timed
matrix cells produce the same report at any worker count, and the cell
cache serves timed cells without changing a byte.
"""

from dataclasses import replace

import pytest
from trace_text import dumped

from repro.codec import decode
from repro.obs import SpanRecorder
from repro.simtime import LinkTiming, TimeModelSpec, link_key
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    Trace,
    TraceOp,
    WorkloadDriver,
    build_topology,
    replay_trace,
    run_matrix,
    run_scenario,
)

#: Every grid message crossing (1, 1)<->(1, 2) fights for a single slot
#: that holds each message 5x the base latency — a congested backbone.
CONGESTED = TimeModelSpec(
    default_link=LinkTiming(latency=0.001, jitter=0.0005),
    link_overrides=(
        (link_key((1, 1), (1, 2)), LinkTiming(latency=0.005, capacity=1)),
    ),
    node_service=0.0002,
)


def timed_spec(**overrides) -> ScenarioSpec:
    base = ScenarioSpec(
        name="timed-congested",
        topology="manhattan:4",
        strategy="checkerboard",
        operations=300,
        clients=8,
        servers=4,
        ports=4,
        seed=23,
        delivery_mode="unicast",
        arrival=ArrivalSpec(kind="poisson", rate=800.0),
        popularity=PopularitySpec(kind="zipf"),
        time_model=CONGESTED,
    )
    return replace(base, **overrides)


class TestRecordReplay:
    def test_run_and_replay_share_one_loop_spans_and_counters_included(self):
        # Timed, churned and faulted at once: every kind of op the generator
        # resolves goes through the same interpreter the replay feeds.
        spec = timed_spec(
            churn=ChurnSpec(kind="mixed", rate=60.0, downtime=0.05),
            faults=FaultRegimeSpec(kind="waves", events=2, size=1, start=0.05,
                                   period=0.1, downtime=0.06),
        )
        driver = WorkloadDriver(spec)
        run_spans, replay_spans = SpanRecorder(), SpanRecorder()
        recorded = driver.run(tracer=run_spans)
        replayed = driver.replay(recorded.trace, tracer=replay_spans)
        kinds = recorded.trace.operation_counts()
        assert {"request", "migrate", "crash", "respawn", "recover", "storm",
                "fault_crash", "fault_recover"} <= set(kinds)
        assert replayed.to_dict() == recorded.to_dict()
        assert [s.to_dict() for s in replay_spans.spans] == [
            s.to_dict() for s in run_spans.spans
        ]
        assert replayed.plan_cache == recorded.plan_cache != {}
        assert replayed.metrics.node_load == recorded.metrics.node_load != {}
        assert replayed.exemplars == recorded.exemplars
        # The counters are the run's own: placement traffic is not in them.
        assert sum(recorded.metrics.node_load.values()) == sum(
            span.attrs["reached"] for span in run_spans.spans
            if span.name == "deliver"
        )

    def test_replay_is_byte_exact_with_equal_latency_buckets(self):
        recorded = run_scenario(timed_spec())
        replayed = replay_trace(recorded.trace)
        assert replayed.to_dict() == recorded.to_dict()
        assert dumped(replayed.trace) == dumped(recorded.trace)
        # Bucket-for-bucket: the full-fidelity dumps (bucket layout and
        # counts), not just the summary percentiles.
        assert (
            replayed.metrics.request_latency.dump()
            == recorded.metrics.request_latency.dump()
        )
        assert (
            replayed.metrics.queue_wait.dump()
            == recorded.metrics.queue_wait.dump()
        )

    def test_congestion_is_visible_in_the_metrics(self):
        result = run_scenario(timed_spec())
        summary = result.metrics.summary()
        latency = summary["latency"]
        queues = summary["queues"]
        assert latency["count"] == 300
        assert latency["p99"] >= latency["p50"] > 0
        assert queues["wait_us"]["max"] > 0, "the squeezed link must queue"
        assert queues["virtual_us"] > 0
        assert queues["link_utilization"], "top links must be reported"

    def test_congested_link_hurts_the_tail(self):
        # Same workload priced with and without the backbone squeeze: the
        # override must cost virtual time.
        uncongested = replace(CONGESTED, link_overrides=())
        slow = run_scenario(timed_spec())
        fast = run_scenario(timed_spec(time_model=uncongested))
        slow_q = slow.metrics.summary()["queues"]
        fast_q = fast.metrics.summary()["queues"]
        assert slow_q["virtual_us"] >= fast_q["virtual_us"]
        assert (
            slow.metrics.summary()["latency"]["mean"]
            > fast.metrics.summary()["latency"]["mean"]
        )

    def test_tight_timeout_drops_messages(self):
        dropping = replace(CONGESTED, timeout=0.0005)
        result = run_scenario(timed_spec(time_model=dropping))
        assert result.metrics.summary()["queues"]["message_timeouts"] > 0


class TestLaunchWithAndWithoutAKernel:
    """On a complete graph every route is one hop, so ``unicast`` (a
    planner routes, a kernel exists) and ``ideal`` (neither) price the
    same launches: every figure the run reports must agree."""

    @staticmethod
    def priced(mode):
        spec = ScenarioSpec(
            name="one-hop-bursts",
            topology="complete:16",
            strategy="checkerboard",
            operations=400,
            clients=16,
            servers=4,
            ports=4,
            seed=5,
            delivery_mode=mode,
            arrival=ArrivalSpec(kind="burst", burst_size=40, burst_gap=0.02),
            popularity=PopularitySpec(kind="zipf"),
            time_model=TimeModelSpec(
                default_link=LinkTiming(latency=0.0005, jitter=0.0001),
                node_service=0.0008,
            ),
        )
        result = run_scenario(spec)
        summary = result.metrics.summary()
        blame = dict(result.metrics.registry.counter_map("critical_path_us"))
        return summary["latency"], summary["queues"], blame

    def test_unicast_and_ideal_report_the_same_figures(self):
        ideal, unicast = self.priced("ideal"), self.priced("unicast")
        latency, queues, blame = ideal
        # The bursts contend: there is something to agree on.
        assert latency["count"] == 400
        assert queues["wait_us"]["max"] > 0
        assert blame
        assert unicast == ideal


class _RecordingTap:
    """A bare message tap: remembers that it was called."""

    def __init__(self):
        self.deliveries = 0

    def on_delivery(self, source, reached, category, mode):
        self.deliveries += 1

    def on_replies(self, responders, client, mode):
        pass

    def on_payload(self, source, destination):
        pass


class TestOverlayIsDetachedWhenAnOpRaises:
    def _shared(self):
        spec = timed_spec()
        network = build_topology(spec.topology).build_network(
            delivery_mode=spec.delivery_mode
        )
        return spec, network

    def test_failed_replay_leaves_the_shared_network_tap_free(self):
        spec, network = self._shared()
        recorded = WorkloadDriver(spec, network=network).run()
        malformed = Trace(recorded.trace.scenario)
        for op in list(recorded.trace)[:20]:
            malformed.append(op)
        # A request from a client the scenario never created.
        malformed.append(TraceOp("request", 1.0, (spec.clients + 5, 0)))
        with pytest.raises(IndexError):
            WorkloadDriver(spec, network=network).replay(malformed)
        # The caller's network is theirs again: a fresh tap attaches (it
        # used to raise "a message tap is already attached") and no stale
        # overlay keeps capturing the caller's traffic.
        tap = _RecordingTap()
        network.attach_tap(tap)
        network.detach_tap()
        # ... and the same driver inputs still replay cleanly afterwards.
        replayed = WorkloadDriver(spec, network=network).replay(recorded.trace)
        assert replayed.to_dict() == recorded.to_dict()

    def test_failed_run_leaves_the_shared_network_tap_free(self, monkeypatch):
        spec, network = self._shared()
        driver = WorkloadDriver(spec, network=network)
        executed = []
        original = WorkloadDriver._exec_op

        def exec_then_fail(self, state, metrics, op):
            if len(executed) == 10:
                raise KeyboardInterrupt
            executed.append(op)
            return original(self, state, metrics, op)

        monkeypatch.setattr(WorkloadDriver, "_exec_op", exec_then_fail)
        with pytest.raises(KeyboardInterrupt):
            driver.run()
        network.attach_tap(_RecordingTap())


def timed_grid() -> MatrixSpec:
    return MatrixSpec(
        name="timed-grid",
        topologies=("manhattan:4", "complete:16"),
        strategies=("checkerboard", "centralized"),
        time_models=(
            None,
            CONGESTED,
            TimeModelSpec(default_link=LinkTiming(latency=0.003)),
        ),
        base=ScenarioSpec(operations=120, clients=6, servers=4, ports=4,
                          seed=31, arrival=ArrivalSpec(kind="poisson",
                                                       rate=500.0)),
    )


class TestTimedMatrix:
    def test_time_models_axis_multiplies_cells(self):
        grid = timed_grid()
        assert grid.cell_count == 2 * 2 * 3
        cells, skipped = grid.expand()
        assert skipped == []
        assert len(cells) == 12
        timed = [c for c in cells if c.spec.time_model is not None]
        assert len(timed) == 8
        # Cell names disambiguate the axis position.
        assert any("t0" in c.spec.name for c in cells)
        assert any("t2" in c.spec.name for c in cells)

    def test_round_trip(self):
        grid = timed_grid()
        assert decode(MatrixSpec, grid.to_dict()) == grid

    @pytest.mark.parametrize("workers", [2, 0])
    def test_parallel_report_matches_sequential(self, workers):
        seq_report, _ = run_matrix(timed_grid())
        par_report, _ = run_matrix(timed_grid(), workers=workers)
        assert par_report.digest() == seq_report.digest()

    def test_cell_cache_round_trip_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cells"
        plain, _ = run_matrix(timed_grid())
        cold, _ = run_matrix(timed_grid(), cache_dir=cache_dir)
        warm, _ = run_matrix(timed_grid(), cache_dir=cache_dir)
        assert cold.digest() == plain.digest()
        assert warm.digest() == plain.digest()

    def test_latency_aggregates_only_for_all_timed_groups(self):
        # The grid mixes untimed (t0) and timed cells, so every strategy
        # group is mixed and must keep the pre-simtime key set...
        mixed_report, _ = run_matrix(timed_grid())
        for row in mixed_report.by_strategy().values():
            assert "p99_latency_us" not in row
        # ...while an all-timed grid grows the latency aggregates.
        all_timed = replace(timed_grid(), time_models=(CONGESTED,))
        timed_report, _ = run_matrix(all_timed)
        for row in timed_report.by_strategy().values():
            assert row["p99_latency_us"] > 0
            assert row["p999_latency_us"] >= row["p99_latency_us"]
