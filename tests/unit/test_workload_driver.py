"""Unit tests for the workload driver, metrics and trace record/replay."""

import io

import pytest

from repro.obs import Histogram
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    PopularitySpec,
    ScenarioSpec,
    Trace,
    TraceOp,
    WorkloadMetrics,
    compare_under_load,
    replay_trace,
    run_scenario,
    workload_table,
)


def small_spec(**overrides):
    defaults = dict(
        name="unit",
        topology="complete:16",
        strategy="checkerboard",
        operations=400,
        clients=8,
        servers=4,
        ports=4,
        seed=5,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestHopHistogram:
    """Hop distributions are plain exact-mode ``Histogram()``s."""

    def test_percentiles_exact(self):
        histogram = Histogram()
        for value in range(1, 101):  # 1..100 once each
            histogram.add(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(95) == 95
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.max == 100
        assert histogram.count == 100

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(95) == 0
        assert histogram.mean == 0.0
        assert histogram.to_dict()["count"] == 0

    def test_rejects_bad_samples(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.add(-1)
        with pytest.raises(ValueError):
            histogram.percentile(0)


class TestObserveRequest:
    """``observe_request`` adds to its instruments directly; the counter
    guard it used to get from ``Counter.inc`` still holds, up front."""

    def test_outcomes_land_in_all_six_instruments(self):
        metrics = WorkloadMetrics()
        metrics.observe_request(
            ok=True, locates=1, retries=0, from_cache=False,
            locate_hops=9, total_hops=11,
        )
        metrics.observe_request(
            ok=False, locates=3, retries=2, from_cache=True,
            locate_hops=27, total_hops=27,
        )
        metrics.observe_request(
            ok=True, locates=0, retries=0, from_cache=True,
            locate_hops=0, total_hops=2,
        )
        assert (metrics.requests, metrics.successes, metrics.failures) == (3, 2, 1)
        assert (metrics.locates, metrics.stale_retries) == (4, 2)
        assert metrics.cache_hits == 1  # cached *and* no locate needed
        assert metrics.locate_hops.buckets() == [(0, 1), (9, 1), (27, 1)]
        assert metrics.request_hops.buckets() == [(2, 1), (11, 1), (27, 1)]

    @pytest.mark.parametrize("bad", [dict(locates=-1), dict(retries=-1)])
    def test_negative_counts_raise_and_record_nothing(self, bad):
        metrics = WorkloadMetrics()
        arguments = dict(
            ok=True, locates=1, retries=0, from_cache=True,
            locate_hops=4, total_hops=6,
        )
        arguments.update(bad)
        with pytest.raises(ValueError, match="counters only increase"):
            metrics.observe_request(**arguments)
        assert metrics.registry.to_dict() == WorkloadMetrics().registry.to_dict()


class TestDriverBasics:
    def test_run_executes_every_operation(self):
        result = run_scenario(small_spec())
        assert result.metrics.requests == 400
        assert result.metrics.success_rate == 1.0
        assert len(result.trace) >= 400
        assert result.wall_seconds > 0
        assert result.ops_per_second > 0

    def test_same_seed_same_metrics(self):
        spec = small_spec(
            arrival=ArrivalSpec(kind="poisson", rate=300.0),
            popularity=PopularitySpec(kind="zipf"),
            churn=ChurnSpec(kind="mixed", rate=2.0),
        )
        assert run_scenario(spec).summary() == run_scenario(spec).summary()

    def test_different_seed_different_trace(self):
        first = run_scenario(
            small_spec(arrival=ArrivalSpec(kind="poisson", rate=300.0), seed=1)
        )
        second = run_scenario(
            small_spec(arrival=ArrivalSpec(kind="poisson", rate=300.0), seed=2)
        )
        assert list(first.trace) != list(second.trace)

    def test_cache_disabled_forces_locates(self):
        result = run_scenario(small_spec(cache_addresses=False))
        assert result.metrics.locates == result.metrics.requests
        assert result.metrics.cache_hits == 0
        assert result.metrics.cache_hit_rate == 0.0

    def test_cache_enabled_mostly_hits(self):
        result = run_scenario(small_spec())
        # 8 clients x 4 ports = at most 32 cold locates in a churn-free run.
        assert result.metrics.locates <= 32
        assert result.metrics.cache_hit_rate > 0.9

    def test_per_node_load_collected(self):
        result = run_scenario(small_spec(cache_addresses=False))
        load = result.metrics.load_balance()
        assert load["nodes"] == 16
        assert load["max"] > 0
        assert sum(result.metrics.node_load.values()) > 0
        assert result.metrics.hottest_nodes(3)

    def test_workload_table_rows(self):
        results = compare_under_load(
            small_spec(), ["checkerboard", "broadcast"]
        )
        rows = workload_table(results)
        assert [row["strategy"] for row in rows] == ["checkerboard", "broadcast"]
        assert all(row["requests"] == 400 for row in rows)
        # Broadcast queries everyone: its p95 must dominate checkerboard's.
        assert rows[1]["p95 hops"] >= rows[0]["p95 hops"]


class TestChurnExecution:
    def test_migration_churn_produces_stale_retries(self):
        spec = small_spec(
            operations=2000,
            arrival=ArrivalSpec(kind="poisson", rate=200.0),
            churn=ChurnSpec(kind="migration", rate=3.0),
        )
        result = run_scenario(spec)
        assert result.metrics.churn_events.get("migrate", 0) > 0
        assert result.metrics.stale_retries > 0
        assert result.metrics.success_rate == 1.0

    def test_failover_churn_crashes_and_recovers(self):
        spec = small_spec(
            operations=2000,
            arrival=ArrivalSpec(kind="poisson", rate=200.0),
            churn=ChurnSpec(kind="failover", rate=1.0, downtime=0.5),
        )
        result = run_scenario(spec)
        counts = result.metrics.churn_events
        assert counts.get("crash", 0) > 0
        assert counts.get("respawn", 0) > 0
        assert counts.get("recover", 0) == counts.get("crash", 0)
        # The service keeps answering through failovers; the only window of
        # unavailability is a pair whose sole rendezvous node is down.
        assert result.metrics.success_rate > 0.95

    def test_storm_churn_wipes_and_reposts(self):
        spec = small_spec(
            operations=1500,
            arrival=ArrivalSpec(kind="poisson", rate=200.0),
            churn=ChurnSpec(kind="storm", rate=1.0, storm_fraction=0.5),
        )
        result = run_scenario(spec)
        assert result.metrics.churn_events.get("storm", 0) > 0
        assert result.metrics.success_rate == 1.0


class TestTrace:
    def test_replay_reproduces_metrics_exactly(self):
        spec = small_spec(
            operations=1500,
            arrival=ArrivalSpec(kind="poisson", rate=250.0),
            popularity=PopularitySpec(kind="hotspot"),
            churn=ChurnSpec(kind="mixed", rate=2.0),
        )
        original = run_scenario(spec)
        replayed = replay_trace(original.trace)
        assert replayed.summary() == original.summary()

    def test_trace_serialization_round_trip(self):
        original = run_scenario(
            small_spec(churn=ChurnSpec(kind="migration", rate=1.0),
                       arrival=ArrivalSpec(kind="poisson", rate=100.0))
        )
        buffer = io.StringIO()
        original.trace.dump(buffer)
        buffer.seek(0)
        loaded = Trace.load(buffer)
        assert loaded.scenario == original.trace.scenario
        assert list(loaded) == list(original.trace)

    def test_trace_file_round_trip_and_replay(self, tmp_path):
        original = run_scenario(small_spec())
        path = tmp_path / "run.jsonl"
        original.trace.to_path(path)
        loaded = Trace.from_path(path)
        assert replay_trace(loaded).summary() == original.summary()

    def test_trace_op_validation(self):
        with pytest.raises(ValueError):
            TraceOp(kind="teleport", time=0.0, args=(1,))

    def test_load_rejects_headerless_stream(self):
        with pytest.raises(ValueError):
            Trace.load(io.StringIO(""))
        with pytest.raises(ValueError):
            Trace.load(io.StringIO('{"op": "request", "t": 0, "args": [0, 0]}\n'))

    @pytest.mark.parametrize("line, error", [
        ('{"op": "request", "t": "0.5", "args": [1, 2]}',
         "trace line 3: TraceOp.time must be float, got str '0.5'"),
        ('{"op": "request", "t": 0.5, "args": ["1", 2]}',
         "trace line 3: TraceOp.args[0] must be int, got str '1'"),
        ('{"op": "request", "t": 0.5, "args": [true, 2]}',
         "trace line 3: TraceOp.args[0] must be int, got bool True"),
        ('{"op": "request", "args": [1, 2]}',
         "trace line 3: an op has exactly the keys op, t and args"),
        ('{"op": "request", "t": 0.5, "args": [1, 2], "x": 0}',
         "trace line 3: an op has exactly the keys op, t and args"),
        ('[0.5]', "trace line 3: an op has exactly the keys op, t and args"),
    ], ids=["t-as-str", "arg-as-str", "arg-as-bool", "no-t", "extra-key", "list"])
    def test_load_refuses_a_malformed_op_line_by_number(self, line, error):
        good = '{"op": "request", "t": 0.25, "args": [0, 1]}'
        stream = io.StringIO(f'{{"scenario": {{}}}}\n{good}\n{line}\n')
        with pytest.raises(ValueError) as raised:
            Trace.load(stream)
        assert str(raised.value).startswith(error)

    def test_load_widens_an_int_time_and_keeps_the_bytes(self):
        trace = Trace.load(io.StringIO(
            '{"scenario": {}}\n{"args": [0, 1], "op": "request", "t": 0.5}\n'
            '{"args": [1, 0], "op": "request", "t": 1}\n'
        ))
        assert [type(op.time) for op in trace] == [float, float]
        buffer = io.StringIO()
        trace.dump(buffer)
        assert buffer.getvalue().splitlines()[1] == \
            '{"args": [0, 1], "op": "request", "t": 0.5}'

    def test_operation_counts(self):
        result = run_scenario(small_spec())
        counts = result.trace.operation_counts()
        assert counts["request"] == 400


class TestDriverOnTopologies:
    @pytest.mark.parametrize(
        "topology,strategy",
        [
            ("manhattan:5", "manhattan"),
            ("hypercube:4", "hypercube"),
            ("manhattan:5", "subgraph"),
            ("complete:16", "hash-locate"),
        ],
    )
    def test_runs_on_topology_specific_strategies(self, topology, strategy):
        spec = small_spec(
            topology=topology, strategy=strategy, operations=200, clients=4
        )
        result = run_scenario(spec)
        assert result.metrics.requests == 200
        assert result.metrics.success_rate == 1.0

