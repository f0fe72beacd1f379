"""Unit tests for the MatchMaker's memoized P/Q fast path."""

import pytest

from repro.core.matchmaker import MatchMaker
from repro.core.strategy import FunctionalStrategy, MatchMakingStrategy
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import CheckerboardStrategy, HashLocateStrategy
from repro.topologies import CompleteTopology


class CountingStrategy(MatchMakingStrategy):
    """Checkerboard semantics plus call counting."""

    name = "counting"

    def __init__(self, universe):
        self._inner = CheckerboardStrategy(universe)
        self.post_calls = 0
        self.query_calls = 0

    def post_set(self, node, port=None):
        self.post_calls += 1
        return self._inner.post_set(node, port)

    def query_set(self, node, port=None):
        self.query_calls += 1
        return self._inner.query_set(node, port)


@pytest.fixture
def network():
    return Network(CompleteTopology(16).graph, delivery_mode="ideal")


class TestMemoization:
    def test_repeated_locates_hit_the_strategy_once(self, network, port):
        strategy = CountingStrategy(network.graph.nodes)
        matchmaker = MatchMaker(network, strategy)
        matchmaker.register_server(3, port)
        for _ in range(10):
            assert matchmaker.locate(9, port).found
        assert strategy.query_calls == 1
        info = matchmaker.pq_cache_info()
        assert info["hits"] == 9
        assert info["misses"] == 2  # one post set, one query set

    def test_distinct_nodes_get_distinct_entries(self, network, port):
        strategy = CountingStrategy(network.graph.nodes)
        matchmaker = MatchMaker(network, strategy)
        matchmaker.register_server(3, port)
        for client in (1, 2, 1, 2):
            matchmaker.locate(client, port)
        assert strategy.query_calls == 2

    def test_six_thousand_locates_cost_sixty_five_strategy_calls(self, port):
        # The deterministic proof of the fast path (formerly E15's timed
        # A/B): on complete:64 only the 64 distinct query sets plus the one
        # post set are ever computed, however many locates run.
        network = Network(CompleteTopology(64).graph, delivery_mode="ideal")
        strategy = CountingStrategy(network.graph.nodes)
        matchmaker = MatchMaker(network, strategy)
        matchmaker.register_server(5, port)
        for i in range(6_000):
            assert matchmaker.locate(i % 64, port).found
        assert strategy.post_calls + strategy.query_calls == 64 + 1
        assert matchmaker.pq_cache_info() == {
            "hits": 6_000 - 64, "misses": 64 + 1, "entries": 64 + 1,
        }

    def test_nondeterministic_strategy_never_memoized(self, network, port):
        universe = network.graph.nodes
        calls = []

        def post(node):
            calls.append(node)
            return frozenset({node})

        strategy = FunctionalStrategy(
            post=post,
            query=lambda j: frozenset(universe),
            deterministic=False,
        )
        matchmaker = MatchMaker(network, strategy)
        matchmaker.register_server(3, port)
        matchmaker.register_server(3, port)
        assert len(calls) == 2  # both posts re-ran the strategy
        assert matchmaker.pq_cache_info()["entries"] == 0

    def test_port_dependent_strategy_keyed_by_port(self, network):
        strategy = HashLocateStrategy(network.graph.nodes, replicas=1)
        assert strategy.port_dependent
        matchmaker = MatchMaker(network, strategy)
        port_a, port_b = Port("svc-a"), Port("svc-b")
        matchmaker.register_server(3, port_a)
        matchmaker.register_server(3, port_b)
        assert matchmaker.locate(9, port_a).found
        assert matchmaker.locate(9, port_b).found
        # Different ports hash to (potentially) different rendezvous nodes,
        # so each (node, port) pair has its own cache entry.
        assert matchmaker.pq_cache_info()["entries"] == 4

    def test_memoized_results_match_strategy(self, network, port):
        strategy = CheckerboardStrategy(network.graph.nodes)
        matchmaker = MatchMaker(network, strategy)
        for node in network.graph.nodes:
            assert matchmaker.post_set(node, port) == strategy.post_set(node, port)
            assert matchmaker.query_set(node, port) == strategy.query_set(node, port)
        # Second sweep is pure cache hits.
        before = matchmaker.pq_cache_info()["hits"]
        for node in network.graph.nodes:
            matchmaker.post_set(node, port)
        assert matchmaker.pq_cache_info()["hits"] == before + network.size
