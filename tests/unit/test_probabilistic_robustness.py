"""Unit tests for the probabilistic analysis (2.2) and robustness (2.4)."""

import random

import pytest

from repro.core import probabilistic, robustness
from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    HashLocateStrategy,
)
from repro.core.types import Port

UNIVERSE = list(range(25))


class TestExpectedIntersection:
    def test_formula(self):
        assert probabilistic.expected_intersection(5, 5, 25) == pytest.approx(1.0)
        assert probabilistic.expected_intersection(10, 10, 25) == pytest.approx(4.0)

    def test_minimum_sum(self):
        assert probabilistic.minimum_sum_for_expected_match(100) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            probabilistic.expected_intersection(0, 5, 25)
        with pytest.raises(ValueError):
            probabilistic.expected_intersection(5, 30, 25)
        with pytest.raises(ValueError):
            probabilistic.expected_intersection(5, 5, 0)


class TestMatchProbability:
    def test_certain_when_p_plus_q_exceeds_n(self):
        assert probabilistic.match_probability(13, 13, 25) == 1.0

    def test_monotone_in_p(self):
        probs = [probabilistic.match_probability(p, 5, 50) for p in (1, 5, 10, 20)]
        assert probs == sorted(probs)

    def test_single_node_each(self):
        assert probabilistic.match_probability(1, 1, 10) == pytest.approx(0.1)

    def test_monte_carlo_matches_theory(self):
        rng = random.Random(42)
        result = probabilistic.monte_carlo(6, 6, 36, trials=3000, rng=rng)
        assert abs(result.mean_intersection - result.expected_intersection) < 0.15
        assert abs(result.hit_fraction - result.predicted_hit_probability) < 0.05

    def test_monte_carlo_validation(self):
        with pytest.raises(ValueError):
            probabilistic.monte_carlo(2, 2, 10, trials=0, rng=random.Random(0))

    def test_sweep_crosses_one_at_2_sqrt_n(self):
        n = 64
        sums = [4, 8, 16, 32]
        expectations = [
            probabilistic.expected_intersection(s // 2, s - s // 2, n) for s in sums
        ]
        assert expectations[0] < 1.0
        assert expectations[-1] > 1.0


class TestRobustness:
    def test_centralized_not_distributed(self):
        matrix = RendezvousMatrix.from_strategy(
            CentralizedStrategy(UNIVERSE, centre=0), UNIVERSE
        )
        report = robustness.analyse(matrix)
        assert not report.is_distributed
        assert report.fault_tolerance == 0
        assert report.critical_nodes == frozenset({0})

    def test_checkerboard_distributed_but_not_redundant(self):
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)
        report = robustness.analyse(matrix)
        assert report.is_distributed
        assert report.fault_tolerance == 0  # singleton rendezvous sets

    def test_broadcast_redundancy_for_far_pairs(self):
        matrix = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        # Entry (i, j) = {i}: singleton, so f = 0, but it IS distributed.
        report = robustness.analyse(matrix)
        assert report.is_distributed
        assert report.fault_tolerance == 0

    def test_fault_tolerance_counts_min_entry(self):
        from repro.core.strategy import FunctionalStrategy

        redundant = FunctionalStrategy(
            post=lambda i: {0, 1, 2}, query=lambda j: {0, 1, 2}
        )
        matrix = RendezvousMatrix.from_strategy(redundant, UNIVERSE)
        assert robustness.fault_tolerance(matrix) == 2

    def test_pair_survives(self):
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)
        server, client = 3, 17
        rendezvous = next(iter(matrix.entry(server, client)))
        assert robustness.pair_survives(matrix, server, client, crashed=[])
        assert not robustness.pair_survives(matrix, server, client, crashed=[rendezvous])
        assert not robustness.pair_survives(matrix, server, client, crashed=[server])

    def test_surviving_pairs_fraction_centralized_collapses(self):
        matrix = RendezvousMatrix.from_strategy(
            CentralizedStrategy(UNIVERSE, centre=0), UNIVERSE
        )
        assert robustness.surviving_pairs_fraction(matrix, crashed=[0]) == 0.0

    def test_surviving_pairs_fraction_checkerboard_mostly_fine(self):
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)
        fraction = robustness.surviving_pairs_fraction(matrix, crashed=[0])
        assert 0.8 < fraction < 1.0

    def test_all_crashed(self):
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)
        assert robustness.surviving_pairs_fraction(matrix, crashed=UNIVERSE) == 0.0

    def test_strategy_redundancy_hash_replicas(self):
        port = Port("svc")
        strategy = HashLocateStrategy(UNIVERSE, replicas=3)
        matrix = RendezvousMatrix.from_strategy(strategy, UNIVERSE, port=port)
        assert robustness.fault_tolerance(matrix) == 2

    def test_redundancy_price(self):
        matrix = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        price = robustness.redundancy_price(matrix)
        assert price["average_cost"] >= price["lower_bound"]
        assert price["overhead_ratio"] >= 1.0
