"""Unit tests for the MatchMakingStrategy abstraction."""

import pytest
from oracle.rendezvous import read_sets, validate

from repro.core.strategy import FunctionalStrategy


@pytest.fixture
def universe():
    return list(range(9))


@pytest.fixture
def broadcastish(universe):
    return FunctionalStrategy(
        post=lambda i: {i},
        query=lambda j: set(universe),
        name="bcast",
        universe=universe,
    )


class TestFunctionalStrategy:
    def test_post_and_query_sets(self, broadcastish):
        assert broadcastish.post_set(3) == frozenset({3})
        assert broadcastish.query_set(5) == frozenset(range(9))

    def test_universe_exposed(self, broadcastish):
        assert broadcastish.universe() == frozenset(range(9))

    def test_universe_optional(self):
        strategy = FunctionalStrategy(post=lambda i: {i}, query=lambda j: {j})
        assert strategy.universe() is None

    def test_name(self, broadcastish):
        assert broadcastish.name == "bcast"


class TestDerivedQuantities:
    def test_rendezvous_set(self, broadcastish):
        assert broadcastish.rendezvous_set(4, 7) == frozenset({4})

    def test_costs(self, broadcastish):
        assert broadcastish.post_cost(0) == 1
        assert broadcastish.query_cost(0) == 9
        assert broadcastish.pair_cost(0, 1) == 10

    def test_every_pair_meets(self, broadcastish, universe):
        assert validate(universe, *read_sets(broadcastish, universe)) == []

    def test_no_match_detected(self):
        strategy = FunctionalStrategy(post=lambda i: {0}, query=lambda j: {1})
        assert strategy.rendezvous_set(5, 6) == frozenset()

    def test_port_argument_ignored_by_default(self, broadcastish, port):
        assert broadcastish.post_set(2, port) == broadcastish.post_set(2)
        assert broadcastish.port_dependent is False
