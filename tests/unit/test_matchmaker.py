"""Unit tests for the MatchMaker engine."""

import pytest
from oracle.ledger import conservation_violations, growth, read_ledger

from repro.core.matchmaker import MatchMaker
from repro.core.types import Address
from repro.network.simulator import Network
from repro.network.stats import PAYLOAD, POST, QUERY, REPLY
from repro.strategies import CheckerboardStrategy, ManhattanStrategy
from repro.topologies import CompleteTopology, ManhattanTopology


@pytest.fixture
def complete_setup():
    topology = CompleteTopology(16)
    network = Network(topology.graph, delivery_mode="ideal")
    strategy = CheckerboardStrategy(topology.nodes())
    return network, strategy, MatchMaker(network, strategy)


@pytest.fixture
def grid_setup(grid5):
    network = Network(grid5.graph, delivery_mode="multicast")
    strategy = ManhattanStrategy(grid5)
    return network, strategy, MatchMaker(network, strategy)


class TestRegistration:
    def test_register_posts_at_strategy_set(self, complete_setup, port):
        network, strategy, matchmaker = complete_setup
        registration = matchmaker.register_server(3, port)
        assert set(registration.posted_at) == set(strategy.post_set(3))
        assert registration.post_hops == len(strategy.post_set(3)) - (
            1 if 3 in strategy.post_set(3) else 0
        )

    def test_deregister_removes_postings(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        registration = matchmaker.register_server(3, port)
        matchmaker.deregister_server(registration)
        assert not matchmaker.locate(9, port).found

    def test_migrate_updates_address(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        registration = matchmaker.register_server(3, port)
        matchmaker.migrate_server(registration, 12)
        result = matchmaker.locate(7, port)
        assert result.found
        assert result.address == Address(12)

    def test_crashed_rendezvous_skipped_on_post(self, complete_setup, port):
        network, strategy, matchmaker = complete_setup
        victim = next(iter(strategy.post_set(3)))
        network.crash_node(victim)
        registration = matchmaker.register_server(3, port)
        assert victim not in registration.posted_at


class TestLocate:
    def test_locate_finds_registered_server(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        matchmaker.register_server(5, port)
        result = matchmaker.locate(10, port)
        assert result.found
        assert result.address == Address(5)
        assert result.rendezvous_nodes

    def test_locate_unregistered_port_fails(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        result = matchmaker.locate(10, port)
        assert not result.found
        assert result.address is None

    def test_locate_counts_queried_nodes(self, complete_setup, port):
        _, strategy, matchmaker = complete_setup
        matchmaker.register_server(5, port)
        result = matchmaker.locate(10, port)
        assert result.nodes_queried == len(strategy.query_set(10))

    def test_newest_server_wins(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        matchmaker.register_server(5, port, server_id="old")
        matchmaker.register_server(6, port, server_id="new")
        # Both posted; the rendezvous caches keep both, the freshest wins.
        result = matchmaker.locate(10, port)
        assert result.found
        assert result.address == Address(6)

    def test_locate_after_all_rendezvous_crashed(self, complete_setup, port):
        network, strategy, matchmaker = complete_setup
        matchmaker.register_server(5, port)
        for node in strategy.rendezvous_set(5, 10):
            network.crash_node(node)
        assert not matchmaker.locate(10, port).found


class TestMatchInstance:
    def test_instance_cost_matches_strategy_on_complete(self, complete_setup, port):
        _, strategy, matchmaker = complete_setup
        result = matchmaker.match_instance(2, 13, port)
        assert result.found
        assert (result.nodes_posted + result.nodes_queried) == len(strategy.post_set(2)) + len(
            strategy.query_set(13)
        )
        # Ideal delivery: hops = addressed nodes minus self-addressed nodes.
        assert result.match_messages <= (result.nodes_posted + result.nodes_queried)

    def test_instance_is_repeatable(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        first = matchmaker.match_instance(2, 13, port)
        second = matchmaker.match_instance(2, 13, port)
        assert first.match_messages == second.match_messages

    def test_instance_cleanup_leaves_no_registration(self, complete_setup, port):
        _, _, matchmaker = complete_setup
        matchmaker.match_instance(2, 13, port)
        assert not matchmaker.locate(13, port).found

    def test_instance_cleanup_is_invisible_in_every_counter_family(self, port):
        # The withdrawal used to be "un-charged" by restoring hops, messages
        # and node_load only, leaving its deliveries and planner events
        # behind: sent 4, delivered 8 for POST on this very grid.
        topology = ManhattanTopology.square(4)
        network = Network(topology.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, ManhattanStrategy(topology))
        stats = network.stats
        matchmaker.match_instance((0, 0), (3, 3), port)  # warms the planner
        categories = (POST, QUERY, REPLY, PAYLOAD)
        assert conservation_violations(*read_ledger(stats), categories) == {}
        # What one instance should be charged: its post and its locate.
        mark = stats.snapshot()
        registration = matchmaker.register_server((0, 0), port)
        matchmaker.locate((3, 3), port)
        charged = growth(stats, mark)
        matchmaker.deregister_server(registration)
        mark = stats.snapshot()
        matchmaker.match_instance((0, 0), (3, 3), port)
        assert growth(stats, mark) == charged
        assert charged["plan_events"] != {}
        assert conservation_violations(*read_ledger(stats), categories) == {}

    def test_grid_instance_includes_routing_overhead(self, grid_setup, port):
        _, strategy, matchmaker = grid_setup
        result = matchmaker.match_instance((0, 0), (4, 4), port)
        assert result.found
        # On the grid the row/column posting costs hops along paths, so hop
        # count is at least the addressed-node count minus the two selves.
        assert result.match_messages >= (result.nodes_posted + result.nodes_queried) - 2
