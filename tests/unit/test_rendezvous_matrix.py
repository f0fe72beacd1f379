"""Unit tests for the rendezvous matrix."""

import pytest
from oracle.rendezvous import is_wasteful, read_matrix, verify_m1

from repro.core.exceptions import StrategyError
from repro.core.rendezvous import RendezvousMatrix
from repro.core.strategy import FunctionalStrategy
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    SweepStrategy,
)

UNIVERSE = list(range(1, 10))


@pytest.fixture
def centralized_matrix():
    return RendezvousMatrix.from_strategy(
        CentralizedStrategy(UNIVERSE, centre=3), UNIVERSE
    )


@pytest.fixture
def checkerboard_matrix():
    return RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)


class TestConstruction:
    def test_from_strategy_entries(self, centralized_matrix):
        assert centralized_matrix.entry(1, 9) == frozenset({3})
        assert centralized_matrix.n == 9

    def test_from_singleton_grid(self):
        grid = [[1, 2], [1, 2]]
        matrix = RendezvousMatrix.from_singleton_grid(grid, nodes=[1, 2])
        assert matrix.entry(1, 2) == frozenset({2})
        # P(1) = {1, 2} (row 1's union), Q(2) = {2} (column 2's union).
        assert matrix.pair_cost(1, 2) == 3

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            RendezvousMatrix.from_singleton_grid([[1, 2], [1]])

    def test_wrong_node_count_rejected(self):
        with pytest.raises(ValueError):
            RendezvousMatrix.from_singleton_grid([[1]], nodes=[1, 2])

    def test_unknown_pair_raises(self, centralized_matrix):
        with pytest.raises(KeyError):
            centralized_matrix.entry(1, 99)


class TestPaperQuantities:
    def test_centralized_costs(self, centralized_matrix):
        assert centralized_matrix.average_cost() == 2.0
        assert centralized_matrix.max_cost() == 2

    def test_broadcast_costs(self):
        matrix = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        assert matrix.average_cost() == 1 + 9

    def test_sweep_costs(self):
        matrix = RendezvousMatrix.from_strategy(SweepStrategy(UNIVERSE), UNIVERSE)
        assert matrix.average_cost() == 9 + 1

    def test_checkerboard_cost_is_2_sqrt_n(self, checkerboard_matrix):
        assert checkerboard_matrix.average_cost() == pytest.approx(6.0)

    def test_multiplicities_sum_at_least_n_squared(self, checkerboard_matrix):
        # (M2): sum k_i >= n^2 for totally successful strategies.
        assert sum(checkerboard_matrix.multiplicities().values()) >= 81

    def test_checkerboard_multiplicities_balanced(self, checkerboard_matrix):
        # Example 4: every node used equally often (k_i = n).
        assert set(checkerboard_matrix.multiplicities().values()) == {9}

    def test_centralized_multiplicities(self, centralized_matrix):
        multiplicities = centralized_matrix.multiplicities()
        assert multiplicities[3] == 81
        assert sum(1 for v in multiplicities.values() if v == 0) == 8

    def test_is_total(self, checkerboard_matrix):
        assert checkerboard_matrix.is_total()

    def test_not_total_when_pairs_miss(self):
        strategy = FunctionalStrategy(
            post=lambda i: {1} if i < 5 else {2},
            query=lambda j: {1},
        )
        matrix = RendezvousMatrix.from_strategy(strategy, UNIVERSE)
        assert not matrix.is_total()

    def test_average_product(self, checkerboard_matrix):
        # Checkerboard of 9 nodes: #P = #Q = 3 everywhere, so product = 9.
        assert checkerboard_matrix.average_product() == pytest.approx(9.0)

    def test_min_redundancy(self, checkerboard_matrix):
        assert checkerboard_matrix.min_redundancy() == 1


class TestSingletonGridAndM1:
    def test_singleton_grid_roundtrip(self, checkerboard_matrix):
        grid = checkerboard_matrix.singleton_grid()
        rebuilt = RendezvousMatrix.from_singleton_grid(
            grid, nodes=checkerboard_matrix.nodes
        )
        assert rebuilt.singleton_grid() == grid

    def test_singleton_grid_rejects_multi_entries(self):
        strategy = FunctionalStrategy(post=lambda i: {1, 2}, query=lambda j: {1, 2})
        matrix = RendezvousMatrix.from_strategy(strategy, [1, 2, 3])
        with pytest.raises(StrategyError):
            matrix.singleton_grid()

    def test_m1_holds_for_strategy_matrices(self, checkerboard_matrix):
        assert verify_m1(*read_matrix(checkerboard_matrix, CheckerboardStrategy(UNIVERSE))) == []

    def test_wasteful_strategy_detected(self):
        # Posting at node 2 never helps because no client ever queries it.
        strategy = FunctionalStrategy(
            post=lambda i: {1, 2},
            query=lambda j: {1},
            name="wasteful",
        )
        matrix = RendezvousMatrix.from_strategy(strategy, [1, 2, 3])
        assert is_wasteful(*read_matrix(matrix, strategy))

    def test_optimal_strategy_not_wasteful(self, checkerboard_matrix):
        assert not is_wasteful(*read_matrix(checkerboard_matrix, CheckerboardStrategy(UNIVERSE)))
