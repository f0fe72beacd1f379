"""Characterization of every name a scenario spec may use.

A spec names its topology family, its P/Q strategy, and its arrival,
popularity, churn and fault-regime kinds as strings.  These tests pin what
each name builds — the class, the P/Q sets of every built strategy, the
fault events of every regime — and the exact text of every refusal, so a
change to how names resolve cannot change what a name means.  The strategy
mismatch text reaches the matrix report's ``skipped`` records and so its
digest.
"""

import hashlib
import random

import pytest

from repro.core.exceptions import StrategyError
from repro.core.types import Port
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
    UniformPopularity,
    ZipfPopularity,
    build_fault_timeline,
    build_strategy,
    build_topology,
    strategy_names,
)
from repro.workload import arrivals as arrivals_mod
from repro.workload import churn as churn_mod
from repro.workload import popularity as popularity_mod

#: One small member of every topology family, with the class it builds.
FAMILIES = {
    "complete:4": "CompleteTopology",
    "ring:4": "RingTopology",
    "manhattan:3": "ManhattanTopology",
    "hypercube:3": "HypercubeTopology",
    "ccc:3": "CubeConnectedCyclesTopology",
    "projective:2": "ProjectivePlaneTopology",
    "hierarchy:2x2": "HierarchicalTopology",
    "tree:2x2": "TreeTopology",
}

#: Strategies that build on every family, with the class they build.
ANYWHERE = {
    "broadcast": "BroadcastStrategy",
    "centralized": "CentralizedStrategy",
    "checkerboard": "CheckerboardStrategy",
    "full": "FullStrategy",
    "hash-locate": "HashLocateStrategy",
    "subgraph": "SubgraphDecompositionStrategy",
    "sweep": "SweepStrategy",
}

#: Strategies that build on one family only: name -> (home family, class).
HOME_ONLY = {
    "ccc": ("ccc:3", "CubeConnectedCyclesStrategy"),
    "hierarchy": ("hierarchy:2x2", "HierarchicalGatewayStrategy"),
    "hypercube": ("hypercube:3", "HypercubeStrategy"),
    "manhattan": ("manhattan:3", "ManhattanStrategy"),
    "projective": ("projective:2", "ProjectivePlaneStrategy"),
    "tree": ("tree:2x2", "TreePathStrategy"),
}

NAMES = [
    "broadcast", "ccc", "centralized", "checkerboard", "full", "hash-locate",
    "hierarchy", "hypercube", "manhattan", "projective", "subgraph", "sweep",
    "tree",
]

#: The port every P/Q set is asked for (Hash Locate's sets depend on it).
PORT = Port("echo")
#: sha256 over the P and Q sets, at every node, of all 62 strategies built.
PQ_DIGEST = "f3b76bfc0a013e2de7be6f2905af9499ed56e56db67e9533fefdd35fab40f045"


def expected(name, family):
    """The class name a pair builds, or the exact mismatch text."""
    if name in ANYWHERE:
        return ANYWHERE[name]
    home, cls = HOME_ONLY[name]
    if family == home:
        return cls
    required = FAMILIES[home]
    return (f"strategy {name!r} requires a {required}, "
            f"got {FAMILIES[family]}")


def built(name, family):
    try:
        return type(build_strategy(name, build_topology(family))).__name__
    except StrategyError as error:
        return str(error)


PAIRS = [(name, family) for name in NAMES for family in FAMILIES]


class TestStrategyNames:
    def test_names(self):
        assert strategy_names() == NAMES
        assert sorted({**ANYWHERE, **HOME_ONLY}) == NAMES

    def test_the_grid_is_104_pairs_of_which_42_are_mismatches(self):
        outcomes = [expected(name, family) for name, family in PAIRS]
        assert len(outcomes) == 104
        assert sum(o.startswith("strategy ") for o in outcomes) == 42

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_builds_its_class(self, family):
        assert type(build_topology(family)).__name__ == FAMILIES[family]

    @pytest.mark.parametrize("name,family", PAIRS)
    def test_pair(self, name, family):
        assert built(name, family) == expected(name, family)

    def test_every_built_strategy_keeps_its_pq_sets(self):
        digest = hashlib.sha256()
        for name, family in PAIRS:
            if expected(name, family).startswith("strategy "):
                continue
            topology = build_topology(family)
            strategy = build_strategy(name, topology)
            for node in topology.nodes():
                post = sorted(map(repr, strategy.post_set(node, PORT)))
                query = sorted(map(repr, strategy.query_set(node, PORT)))
                digest.update(f"{name}@{family}/{node!r}:{post}|{query}\n"
                              .encode())
        assert digest.hexdigest() == PQ_DIGEST

    def test_names_are_trimmed_and_case_folded(self):
        grid = build_topology(" Manhattan:3")
        assert type(build_strategy(" Manhattan ", grid)).__name__ \
            == "ManhattanStrategy"

    def test_unknown_strategy_lists_the_known_names(self):
        with pytest.raises(ValueError) as caught:
            build_strategy("quantum", build_topology("ring:4"))
        assert str(caught.value) == (
            "unknown strategy 'quantum'; known: broadcast, ccc, centralized, "
            "checkerboard, full, hash-locate, hierarchy, hypercube, manhattan, "
            "projective, subgraph, sweep, tree"
        )
        assert not isinstance(caught.value, StrategyError)

    @pytest.mark.parametrize("spec,text", [
        ("moebius:4", "unknown topology family 'moebius' in 'moebius:4'"),
        ("complete", "topology spec 'complete' needs 1 integer argument(s)"),
        ("tree:2", "topology spec 'tree:2' needs 2 integer argument(s)"),
        ("ring:4x4", "topology spec 'ring:4x4' needs 1 integer argument(s)"),
        ("ring:a", "topology spec 'ring:a' has non-integer arguments"),
    ])
    def test_bad_topology_text(self, spec, text):
        with pytest.raises(ValueError) as caught:
            build_topology(spec)
        assert str(caught.value) == text


class TestModelKinds:
    @pytest.mark.parametrize("kind,cls", [
        ("closed", ClosedLoopArrivals),
        ("poisson", PoissonArrivals),
        ("burst", BurstArrivals),
    ])
    def test_arrival_kind(self, kind, cls):
        assert type(arrivals_mod.from_spec(ArrivalSpec(kind=kind))) is cls

    @pytest.mark.parametrize("kind,cls", [
        ("uniform", UniformPopularity),
        ("zipf", ZipfPopularity),
        ("hotspot", MovingHotspotPopularity),
    ])
    def test_popularity_kind(self, kind, cls):
        model = popularity_mod.from_spec(PopularitySpec(kind=kind), 3)
        assert type(model) is cls

    @pytest.mark.parametrize("kind,events,count", [
        ("none", set(), 0),
        ("migration", {"migrate"}, 39),
        ("failover", {"failover"}, 39),
        ("storm", {"storm"}, 39),
        ("mixed", {"migrate", "failover", "storm"}, 42),
    ])
    def test_churn_kind(self, kind, events, count):
        model = churn_mod.from_spec(ChurnSpec(kind=kind, rate=2.0))
        cls = NoChurn if kind == "none" else churn_mod.PoissonChurn
        assert isinstance(model, cls)
        schedule = model.schedule(random.Random(4), 20.0)
        assert len(schedule) == count
        assert {event.kind for event in schedule} == events

    @pytest.mark.parametrize("kind,label,count,digest", [
        ("none", "none", 0, "4f53cda18c2baa0c"),
        ("waves", "waves(e2,s2)", 8, "cd73a92bbe221166"),
        ("flaps", "flaps(e2)", 4, "73966bea59db285b"),
    ])
    def test_fault_regime_kind(self, kind, label, count, digest):
        regime = FaultRegimeSpec(kind=kind)
        assert regime.label == label
        graph = build_topology("manhattan:3").graph
        timeline = build_fault_timeline(regime, graph, random.Random(5))
        events = list(timeline)
        assert len(events) == count
        events = repr(events).encode()
        assert hashlib.sha256(events).hexdigest()[:16] == digest

    @pytest.mark.parametrize("cls,text", [
        (ArrivalSpec, "unknown arrival kind 'nope'; "
                      "expected one of ('closed', 'poisson', 'burst')"),
        (PopularitySpec, "unknown popularity kind 'nope'; "
                         "expected one of ('uniform', 'zipf', 'hotspot')"),
        (ChurnSpec, "unknown churn kind 'nope'; expected one of "
                    "('none', 'migration', 'failover', 'storm', 'mixed')"),
        (FaultRegimeSpec, "unknown fault regime kind 'nope'; expected one of "
                          "('none', 'waves', 'flaps')"),
    ])
    def test_unknown_kind_text(self, cls, text):
        with pytest.raises(ValueError) as caught:
            cls(kind="nope")
        assert str(caught.value) == text
