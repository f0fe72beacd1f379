"""Unit tests for Examples 1-4: broadcast, sweep, centralized, checkerboard."""

import math
import random

import pytest
from oracle.rendezvous import read_sets, validate

from repro.core.bounds import checkerboard_grid
from repro.core.exceptions import StrategyError
from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    FullStrategy,
    SweepStrategy,
)

UNIVERSE = list(range(1, 10))


class TestBroadcast:
    def test_sets(self):
        strategy = BroadcastStrategy(UNIVERSE)
        assert strategy.post_set(4) == frozenset({4})
        assert strategy.query_set(4) == frozenset(UNIVERSE)

    def test_rendezvous_at_server(self):
        strategy = BroadcastStrategy(UNIVERSE)
        assert strategy.rendezvous_set(3, 8) == frozenset({3})

    def test_matrix_matches_paper_example1(self):
        # Example 1: row i is constant i.
        matrix = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        grid = matrix.singleton_grid()
        for i, row in enumerate(grid, start=1):
            assert row == [i] * 9

    def test_total_and_validates(self):
        strategy = BroadcastStrategy(UNIVERSE)
        assert validate(UNIVERSE, *read_sets(strategy, UNIVERSE)) == []

    def test_unknown_node_rejected(self):
        with pytest.raises(StrategyError):
            BroadcastStrategy(UNIVERSE).post_set(99)

    def test_empty_universe_rejected(self):
        with pytest.raises(StrategyError):
            BroadcastStrategy([])


class TestSweep:
    def test_sets(self):
        strategy = SweepStrategy(UNIVERSE)
        assert strategy.post_set(4) == frozenset(UNIVERSE)
        assert strategy.query_set(4) == frozenset({4})

    def test_matrix_matches_paper_example2(self):
        # Example 2: column j is constant j.
        matrix = RendezvousMatrix.from_strategy(SweepStrategy(UNIVERSE), UNIVERSE)
        grid = matrix.singleton_grid()
        for row in grid:
            assert row == list(range(1, 10))

    def test_rendezvous_at_client(self):
        assert SweepStrategy(UNIVERSE).rendezvous_set(3, 8) == frozenset({8})

    def test_mirror_of_broadcast_cost(self):
        sweep = RendezvousMatrix.from_strategy(SweepStrategy(UNIVERSE), UNIVERSE)
        broadcast = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        assert sweep.average_cost() == broadcast.average_cost()


class TestCentralized:
    def test_sets(self):
        strategy = CentralizedStrategy(UNIVERSE, centre=3)
        assert strategy.post_set(7) == frozenset({3})
        assert strategy.query_set(1) == frozenset({3})

    def test_matrix_matches_paper_example3(self):
        matrix = RendezvousMatrix.from_strategy(
            CentralizedStrategy(UNIVERSE, centre=3), UNIVERSE
        )
        grid = matrix.singleton_grid()
        assert all(cell == 3 for row in grid for cell in row)

    def test_cost_is_two(self):
        matrix = RendezvousMatrix.from_strategy(
            CentralizedStrategy(UNIVERSE, centre=3), UNIVERSE
        )
        assert matrix.average_cost() == 2.0

    def test_centre_must_be_member(self):
        with pytest.raises(StrategyError):
            CentralizedStrategy(UNIVERSE, centre=42)


class TestFull:
    def test_cost_is_2n(self):
        matrix = RendezvousMatrix.from_strategy(FullStrategy(UNIVERSE), UNIVERSE)
        assert matrix.average_cost() == 18.0

    def test_maximal_redundancy(self):
        matrix = RendezvousMatrix.from_strategy(FullStrategy(UNIVERSE), UNIVERSE)
        assert matrix.min_redundancy() == 9


class TestCheckerboard:
    def test_matrix_matches_paper_example4(self):
        # Example 4: 3x3 blocks numbered 1..9 left-to-right, top-to-bottom.
        matrix = RendezvousMatrix.from_strategy(
            CheckerboardStrategy(UNIVERSE, order=UNIVERSE), UNIVERSE
        )
        grid = matrix.singleton_grid()
        expected_first_row = [1, 1, 1, 2, 2, 2, 3, 3, 3]
        expected_last_row = [7, 7, 7, 8, 8, 8, 9, 9, 9]
        assert grid[0] == expected_first_row
        assert grid[8] == expected_last_row
        assert grid[4] == [4, 4, 4, 5, 5, 5, 6, 6, 6]

    def test_cost_is_2_sqrt_n(self):
        matrix = RendezvousMatrix.from_strategy(
            CheckerboardStrategy(UNIVERSE), UNIVERSE
        )
        assert matrix.average_cost() == pytest.approx(2 * math.sqrt(9))

    def test_rendezvous_is_the_block_representative(self):
        strategy = CheckerboardStrategy(UNIVERSE, order=UNIVERSE)
        assert strategy.rendezvous_set(1, 1) == frozenset({1})
        assert strategy.rendezvous_set(9, 1) == frozenset({7})
        assert strategy.rendezvous_set(1, 9) == frozenset({3})

    def test_non_square_universe_still_total(self):
        for n in (5, 11, 14, 27):
            universe = list(range(n))
            strategy = CheckerboardStrategy(universe)
            assert validate(universe, *read_sets(strategy, universe)) == []

    def test_arbitrary_hashable_nodes(self):
        universe = [f"host-{i}" for i in range(12)]
        strategy = CheckerboardStrategy(universe)
        assert validate(universe, *read_sets(strategy, universe)) == []

    def test_order_must_be_permutation(self):
        with pytest.raises(StrategyError):
            CheckerboardStrategy(UNIVERSE, order=[1, 2, 3])

    @pytest.mark.parametrize("order", [
        [0, 1, 2, 2],
        [0, 0, 1, 2],
        [2, 1, 0, 1, 2],
    ])
    def test_order_with_repeated_nodes_is_rejected(self, order):
        # Same node set as the universe, but not a permutation of it.
        with pytest.raises(StrategyError, match="permutation"):
            CheckerboardStrategy([0, 1, 2], order=order)

    def test_works_with_tuple_nodes(self):
        universe = [(r, c) for r in range(3) for c in range(3)]
        strategy = CheckerboardStrategy(universe)
        assert validate(universe, *read_sets(strategy, universe)) == []


class TestCheckerboardClosedForm:
    """The block-wise P/Q sets against the full Proposition 3 grid."""

    @staticmethod
    def orders(n):
        """``(order, argument)`` pairs: the default order (sorted by repr,
        no ``order`` argument) and two custom ones.  String nodes, whose
        set iteration order depends on insertion order, unlike small ints."""
        universe = [f"node-{i}" for i in range(n)]
        custom = [universe[::-1], random.Random(n).sample(universe, n)]
        return [(sorted(universe, key=repr), None)] + [(o, o) for o in custom]

    @staticmethod
    def line_sets(lines, order):
        """Each grid line as the frozenset of its nodes, listed in iteration
        order (an equal neighbouring line reuses its predecessor's)."""
        sets, previous = [], None
        for line in lines:
            if line != previous:
                current = list(frozenset(map(order.__getitem__, line)))
                previous = line
            sets.append(current)
        return sets

    def test_sets_and_their_order_equal_the_reference_grid(self):
        for n in range(1, 201):
            # checkerboard_grid only indexes its nodes, so the grid over
            # positions relabels to the grid over any order.
            positions = checkerboard_grid(list(range(n)))
            columns = list(zip(*positions))
            for order, argument in self.orders(n):
                strategy = CheckerboardStrategy(order, order=argument)
                rows = self.line_sets(positions, order)
                cols = self.line_sets(columns, order)
                for position, node in enumerate(order):
                    # Equal sets with equal iteration order: built by
                    # inserting the same nodes in the same sequence.
                    assert list(strategy.post_set(node)) == rows[position]
                    assert list(strategy.query_set(node)) == cols[position]

    def test_relabelled_reference_is_the_grid_over_the_order(self):
        for n in (1, 2, 7, 16, 23):
            for order, _ in self.orders(n):
                positions = checkerboard_grid(list(range(n)))
                assert checkerboard_grid(order) == [
                    [order[k] for k in row] for row in positions
                ]

    def test_4096_nodes_build_sqrt_n_sets_with_singleton_rendezvous(self):
        universe = range(4096)
        strategy = CheckerboardStrategy(universe)
        assert {len(strategy.post_set(node)) for node in universe} == {64}
        assert {len(strategy.query_set(node)) for node in universe} == {64}
        sample = random.Random(4096).sample(list(universe), 64)
        for server in sample:
            for client in sample:
                assert len(strategy.rendezvous_set(server, client)) == 1
