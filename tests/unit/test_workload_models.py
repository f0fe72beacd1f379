"""Unit tests for the workload model layer: specs, arrivals, popularity,
churn."""

import random

import pytest

from repro.codec import decode, encode
from repro.core.exceptions import StrategyError
from repro.strategies import CheckerboardStrategy, ManhattanStrategy
from repro.topologies import CompleteTopology, HypercubeTopology, ManhattanTopology
from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    BurstArrivals,
    ChurnSpec,
    ClosedLoopArrivals,
    FaultRegimeSpec,
    MovingHotspotPopularity,
    NoChurn,
    PoissonArrivals,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
    UniformPopularity,
    ZipfPopularity,
    build_strategy,
    build_topology,
    strategy_names,
)
from repro.workload import arrivals as arrivals_mod
from repro.workload import churn as churn_mod
from repro.workload import popularity as popularity_mod


class TestSpecs:
    def test_scenario_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="rt",
            topology="manhattan:6",
            strategy="manhattan",
            operations=500,
            clients=8,
            servers=4,
            ports=2,
            seed=9,
            arrival=ArrivalSpec(kind="poisson", rate=123.0),
            popularity=PopularitySpec(kind="zipf", zipf_exponent=1.3),
            churn=ChurnSpec(kind="mixed", rate=0.5),
        )
        assert decode(ScenarioSpec, encode(spec)) == spec

    def test_with_strategy_renames(self):
        spec = ScenarioSpec(name="base")
        derived = spec.with_strategy("broadcast")
        assert derived.strategy == "broadcast"
        assert derived.name == "base:broadcast"
        assert derived.seed == spec.seed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"operations": 0},
            {"clients": 0},
            {"servers": 2, "ports": 3},
        ],
    )
    def test_scenario_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", **kwargs)

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="nope")
        with pytest.raises(ValueError):
            ArrivalSpec(rate=0)

    def test_popularity_validation(self):
        with pytest.raises(ValueError):
            PopularitySpec(kind="nope")
        with pytest.raises(ValueError):
            PopularitySpec(hotspot_fraction=0.0)

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(kind="nope")
        with pytest.raises(ValueError):
            ChurnSpec(kind="migration", rate=0.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "spec_class, field, kwargs",
        [
            (ArrivalSpec, "rate", {"kind": "poisson"}),
            (PopularitySpec, "zipf_exponent", {"kind": "zipf"}),
            (ChurnSpec, "rate", {"kind": "migration"}),
            (FaultRegimeSpec, "period", {"kind": "waves"}),
            (SloSpec, "window", {}),
            (LinkTiming, "jitter", {}),
            (TimeModelSpec, "node_service", {}),
        ],
    )
    def test_non_finite_numbers_are_rejected_by_field_name(
        self, spec_class, field, kwargs, value
    ):
        # ``nan <= 0`` is false, so range checks alone let NaN through.
        with pytest.raises(ValueError, match=rf"{spec_class.__name__}\.{field}"):
            spec_class(**kwargs, **{field: float(value)})

    def test_from_dict_names_unknown_keys(self):
        with pytest.raises(ValueError, match="operatons"):
            decode(ScenarioSpec, {"operatons": 10})

    @pytest.mark.parametrize(
        "section,spec_class,accepted",
        [
            ("arrival", ArrivalSpec, "'burst_gap'"),
            ("popularity", PopularitySpec, "'zipf_exponent'"),
            ("churn", ChurnSpec, "'downtime'"),
            ("faults", FaultRegimeSpec, "'period'"),
            ("slo", SloSpec, "'latency_target'"),
        ],
    )
    def test_from_dict_names_unknown_nested_keys(
        self, section, spec_class, accepted
    ):
        # Used to die as "TypeError: ArrivalSpec.__init__() got an
        # unexpected keyword argument 'bogus'".
        with pytest.raises(ValueError) as caught:
            decode(ScenarioSpec, {section: {"bogus": 1}})
        message = str(caught.value)
        assert f"unknown {spec_class.__name__} key(s) ['bogus']" in message
        assert accepted in message  # ... and what would have been accepted


class TestResolvers:
    def test_build_topology_families(self):
        assert build_topology("complete:16").node_count == 16
        assert build_topology("ring:10").node_count == 10
        assert build_topology("manhattan:5").node_count == 25
        assert build_topology("hypercube:4").node_count == 16
        assert build_topology("hierarchy:3x2").node_count == 9
        assert isinstance(build_topology("manhattan:5"), ManhattanTopology)

    def test_build_topology_rejects_garbage(self):
        with pytest.raises(ValueError):
            build_topology("klein-bottle:7")
        with pytest.raises(ValueError):
            build_topology("complete")
        with pytest.raises(ValueError):
            build_topology("complete:x")

    def test_build_strategy_registry_and_specific(self):
        grid = build_topology("manhattan:5")
        assert isinstance(build_strategy("checkerboard", grid), CheckerboardStrategy)
        assert isinstance(build_strategy("manhattan", grid), ManhattanStrategy)
        assert build_strategy("subgraph", grid).post_set(grid.nodes()[0])

    def test_build_strategy_topology_mismatch(self):
        cube = HypercubeTopology(3)
        with pytest.raises(StrategyError):
            build_strategy("manhattan", cube)

    def test_strategy_names_cover_both_kinds(self):
        names = strategy_names()
        assert {"checkerboard", "broadcast", "manhattan", "hypercube",
                "subgraph"} <= set(names)


class TestArrivals:
    def test_closed_loop_round_robin(self):
        process = ClosedLoopArrivals(think_time=2.0)
        stream = list(process.arrivals(random.Random(0), 8, 4))
        assert [client for _, client in stream] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert stream[0][0] == 0.0
        assert stream[4][0] == pytest.approx(2.0)

    def test_poisson_is_monotone_and_seed_stable(self):
        process = PoissonArrivals(rate=100.0)
        first = list(process.arrivals(random.Random(7), 200, 5))
        second = list(process.arrivals(random.Random(7), 200, 5))
        assert first == second
        times = [t for t, _ in first]
        assert times == sorted(times)
        assert all(0 <= client < 5 for _, client in first)

    def test_burst_structure(self):
        process = BurstArrivals(burst_size=10, burst_gap=1.0)
        stream = list(process.arrivals(random.Random(1), 25, 3))
        times = [t for t, _ in stream]
        assert times[:10] == [0.0] * 10
        assert times[10:20] == [1.0] * 10
        assert times[20:] == [2.0] * 5

    def test_from_spec_dispatch(self):
        assert isinstance(
            arrivals_mod.from_spec(ArrivalSpec(kind="closed")), ClosedLoopArrivals
        )
        assert isinstance(
            arrivals_mod.from_spec(ArrivalSpec(kind="poisson")), PoissonArrivals
        )
        assert isinstance(
            arrivals_mod.from_spec(ArrivalSpec(kind="burst")), BurstArrivals
        )


class TestPopularity:
    def test_uniform_covers_every_port(self):
        model = UniformPopularity(4)
        rng = random.Random(3)
        picks = {model.pick(rng, 0.0) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_zipf_is_skewed_toward_rank_zero(self):
        model = ZipfPopularity(10, exponent=1.2)
        rng = random.Random(5)
        counts = [0] * 10
        for _ in range(5000):
            counts[model.pick(rng, 0.0)] += 1
        assert counts[0] > counts[4] > counts[9]
        assert counts[0] > 5000 / 10  # clearly above uniform share

    def test_hotspot_moves_with_time(self):
        model = MovingHotspotPopularity(5, fraction=1.0, interval=2.0)
        rng = random.Random(0)
        assert model.pick(rng, 0.0) == 0
        assert model.pick(rng, 2.5) == 1
        assert model.pick(rng, 4.1) == 2
        assert model.hot_port(10.0) == 0  # wraps around

    def test_hotspot_fraction_spills_to_other_ports(self):
        model = MovingHotspotPopularity(4, fraction=0.5, interval=100.0)
        rng = random.Random(11)
        picks = [model.pick(rng, 0.0) for _ in range(400)]
        hot_share = picks.count(0) / len(picks)
        assert 0.4 < hot_share < 0.75
        assert set(picks) == {0, 1, 2, 3}

    def test_from_spec_dispatch(self):
        assert isinstance(
            popularity_mod.from_spec(PopularitySpec(kind="uniform"), 3),
            UniformPopularity,
        )
        assert isinstance(
            popularity_mod.from_spec(PopularitySpec(kind="zipf"), 3), ZipfPopularity
        )
        assert isinstance(
            popularity_mod.from_spec(PopularitySpec(kind="hotspot"), 3),
            MovingHotspotPopularity,
        )


class TestChurn:
    def test_no_churn_is_empty(self):
        assert NoChurn().schedule(random.Random(0), 100.0) == []

    def test_poisson_schedule_rate_and_determinism(self):
        model = churn_mod.MigrationChurn(rate=2.0)
        first = model.schedule(random.Random(9), 500.0)
        second = model.schedule(random.Random(9), 500.0)
        assert first == second
        assert 700 < len(first) < 1300  # ~1000 expected events
        times = [event.time for event in first]
        assert times == sorted(times)
        assert all(event.kind == churn_mod.MIGRATE for event in first)

    def test_mixed_draws_all_kinds(self):
        model = churn_mod.MixedChurn(rate=5.0)
        kinds = {event.kind for event in model.schedule(random.Random(2), 200.0)}
        assert kinds == {churn_mod.MIGRATE, churn_mod.FAILOVER, churn_mod.STORM}

    def test_from_spec_dispatch(self):
        assert isinstance(churn_mod.from_spec(ChurnSpec(kind="none")), NoChurn)
        for kind, cls in (
            ("migration", churn_mod.MigrationChurn),
            ("failover", churn_mod.FailoverChurn),
            ("storm", churn_mod.StormChurn),
            ("mixed", churn_mod.MixedChurn),
        ):
            model = churn_mod.from_spec(ChurnSpec(kind=kind, rate=1.0))
            assert isinstance(model, cls)
