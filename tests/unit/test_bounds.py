"""Unit tests for Propositions 1-4 (repro.core.bounds)."""

import math

import pytest

from repro.core import bounds
from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    SweepStrategy,
)

UNIVERSE = list(range(16))


class TestLowerBoundFormulas:
    def test_sum_sqrt(self):
        assert bounds.sum_sqrt_multiplicities([4, 9, 16]) == pytest.approx(2 + 3 + 4)

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            bounds.sum_sqrt_multiplicities([-1])

    def test_proposition1_bound(self):
        assert bounds.proposition1_bound([4, 4]) == pytest.approx(16.0)

    def test_proposition2_truly_distributed_case(self):
        # k_i = n for all i  ->  bound = 2*sqrt(n).
        n = 25
        assert bounds.proposition2_bound([n] * n, n) == pytest.approx(2 * math.sqrt(n))

    def test_proposition2_centralized_case(self):
        # One node with k = n^2  ->  bound = 2.
        n = 25
        assert bounds.proposition2_bound([n * n] + [0] * (n - 1), n) == pytest.approx(2.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            bounds.proposition2_bound([1], 0)

    def test_most_inefficient(self):
        assert bounds.most_inefficient_cost(10) == 20


class TestBoundsHoldForStrategies:
    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: BroadcastStrategy(UNIVERSE),
            lambda: SweepStrategy(UNIVERSE),
            lambda: CentralizedStrategy(UNIVERSE, centre=0),
            lambda: CheckerboardStrategy(UNIVERSE),
        ],
    )
    def test_proposition1_and_2_satisfied(self, strategy_factory):
        matrix = RendezvousMatrix.from_strategy(strategy_factory(), UNIVERSE)
        measured_product, bound_product = bounds.verify_proposition1(matrix)
        assert measured_product >= bound_product - 1e-9
        measured_cost, bound_cost = bounds.verify_proposition2(matrix)
        assert measured_cost >= bound_cost - 1e-9

    def test_checkerboard_meets_bound_exactly(self):
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)
        measured, bound = bounds.verify_proposition2(matrix)
        assert measured == pytest.approx(bound)

    def test_broadcast_far_from_its_bound(self):
        matrix = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        measured, bound = bounds.verify_proposition2(matrix)
        assert measured > 2 * bound


class TestCheckerboardConstruction:
    def test_grid_square_case(self):
        grid = bounds.checkerboard_grid(list(range(9)))
        # 3x3 blocks of one node each.
        assert grid[0][0] == grid[2][2] == 0
        assert grid[0][3] == 1
        assert grid[3][0] == 3

    def test_matrix_achieves_2_sqrt_n(self):
        nodes = list(range(25))
        matrix = bounds.checkerboard_matrix(nodes)
        assert matrix.average_cost() == pytest.approx(10.0)
        assert matrix.is_total()

    def test_non_square_n_still_total_and_near_optimal(self):
        for n in (7, 12, 20, 33):
            nodes = list(range(n))
            matrix = bounds.checkerboard_matrix(nodes)
            assert matrix.is_total()
            assert matrix.average_cost() <= 3.2 * math.sqrt(n)

    def test_strategy_matches_matrix(self):
        nodes = list(range(16))
        strategy = CheckerboardStrategy(nodes, order=nodes)
        via_strategy = RendezvousMatrix.from_strategy(strategy, nodes)
        direct = bounds.checkerboard_matrix(nodes)
        assert via_strategy.singleton_grid() == direct.singleton_grid()

    def test_multiplicities_roughly_n(self):
        nodes = list(range(16))
        matrix = bounds.checkerboard_matrix(nodes)
        multiplicities = matrix.multiplicities()
        used = [v for v in multiplicities.values() if v > 0]
        assert all(v == 16 for v in used)

    def test_empty_universe(self):
        assert bounds.checkerboard_grid([]) == []


class TestLift:
    def test_lift_quadruples_size_and_doubles_cost(self):
        nodes = list(range(9))
        base = bounds.checkerboard_matrix(nodes)
        lifted = bounds.lift_matrix(base)
        assert lifted.n == 4 * base.n
        assert lifted.average_cost() == pytest.approx(2 * base.average_cost())

    def test_lift_multiplicities_quadruple(self):
        nodes = list(range(4))
        base = bounds.checkerboard_matrix(nodes)
        lifted = bounds.lift_matrix(base)
        base_counts = base.multiplicities()
        lifted_counts = lifted.multiplicities()
        for node, count in base_counts.items():
            for copy in range(4):
                assert lifted_counts[(node, copy)] == 4 * count

    def test_lift_stays_total_and_satisfies_bounds(self):
        base = bounds.checkerboard_matrix(list(range(9)))
        lifted = bounds.lift_matrix(base)
        assert lifted.is_total()
        measured, bound = bounds.verify_proposition2(lifted)
        assert measured >= bound - 1e-9

    def test_lift_grid_rejects_bad_copies(self):
        grid = [[0]]
        with pytest.raises(ValueError):
            bounds.lift_grid(grid, {0: [0, 0, 1, 2]})

    def test_lift_grid_rejects_non_square(self):
        with pytest.raises(ValueError):
            bounds.lift_grid([[0, 1]], {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]})
