"""Unit tests for the delivery modes and Network.broadcast, and for
repro.network.faults."""

import pytest

from repro.core.exceptions import NodeDownError
from repro.network.faults import FaultPlan
from repro.network.graph import Graph, complete_graph
from repro.network.simulator import Network
from repro.network.stats import POST, QUERY


@pytest.fixture
def line():
    return Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)])


def send(graph, source, destinations, mode, crashed=(), failed=()):
    """Deliver once over a fresh network on ``graph`` with ``crashed``
    nodes and ``failed`` links."""
    net = Network(graph, delivery_mode=mode)
    for node in crashed:
        net.crash_node(node)
    for link in failed:
        net.fail_link(*link)
    return net.deliver(source, destinations, POST)


class TestUnicast:
    def test_cost_is_sum_of_distances(self, line):
        outcome = send(line, 0, [1, 3, 4], "unicast")
        assert outcome.hops == 1 + 3 + 4
        assert outcome.reached == frozenset({1, 3, 4})
        assert not outcome.unreachable

    def test_source_in_destinations_free(self, line):
        outcome = send(line, 2, [2], "unicast")
        assert outcome.hops == 0
        assert outcome.reached == frozenset({2})

    def test_unreachable_destination_reported(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        outcome = send(graph, 0, [1, 2], "unicast")
        assert outcome.reached == frozenset({1})
        assert outcome.unreachable == frozenset({2})

    def test_crashed_destination_skipped(self, line):
        outcome = send(line, 0, [1, 3], "unicast", crashed=[3])
        assert outcome.reached == frozenset({1})
        assert outcome.unreachable == frozenset({3})

    def test_crashed_intermediate_blocks_route(self, line):
        outcome = send(line, 0, [4], "unicast", crashed=[2])
        assert 4 in outcome.unreachable


class TestMulticast:
    def test_shares_tree_edges(self):
        star = Graph(edges=[(0, i) for i in range(1, 6)])
        outcome = send(star, 0, [1, 2, 3, 4, 5], "multicast")
        assert outcome.hops == 5

    def test_line_multicast_costs_path_length(self, line):
        outcome = send(line, 0, [4], "multicast")
        assert outcome.hops == 4

    def test_multicast_cheaper_than_unicast_on_line(self, line):
        targets = [1, 2, 3, 4]
        assert send(line, 0, targets, "multicast").hops < \
            send(line, 0, targets, "unicast").hops

    def test_complete_network_cost_equals_target_count(self):
        graph = complete_graph(9)
        targets = [1, 2, 3, 4]
        assert send(graph, 0, targets, "multicast").hops == len(targets)

    def test_failed_link_forces_detour_or_unreachable(self, line):
        outcome = send(line, 0, [4], "multicast", failed=[(1, 2)])
        assert outcome.unreachable == frozenset({4})


class TestFlood:
    def test_flood_reaches_everyone(self, line):
        outcome = Network(line).broadcast(2, QUERY)
        assert outcome.reached == frozenset(range(5))
        assert outcome.hops == 4  # spanning tree of 5 nodes

    def test_flood_cost_omega_n(self):
        assert Network(complete_graph(50)).broadcast(0, QUERY).hops == 49

    def test_flood_respects_partitions(self):
        graph = Graph(nodes=range(4), edges=[(0, 1), (2, 3)])
        outcome = Network(graph).broadcast(0, QUERY)
        assert outcome.reached == frozenset({0, 1})
        assert outcome.unreachable == frozenset({2, 3})

    def test_flood_from_crashed_source(self, line):
        net = Network(line)
        net.crash_node(0)
        with pytest.raises(NodeDownError):
            net.broadcast(0, QUERY)
        assert net.stats.messages == {}


class TestFaultPlan:
    def test_crash_and_recover(self):
        plan = FaultPlan()
        plan.crash_node(3)
        assert 3 in plan.crashed_nodes
        plan.recover_node(3)
        assert 3 not in plan.crashed_nodes

    def test_link_failure_affects_link_only(self):
        plan = FaultPlan()
        plan.fail_link(1, 2)
        assert plan.failed_links == {frozenset({1, 2})}
        assert not plan.crashed_nodes
        plan.restore_link(2, 1)
        assert plan.failed_links == set()

    def test_link_down_if_endpoint_down(self, line):
        net = Network(line, delivery_mode="unicast")
        net.crash_node(1)
        outcome = net.deliver(2, [0, 4], POST)
        assert outcome.unreachable == frozenset({0})

    def test_fault_count_and_clear(self):
        plan = FaultPlan()
        plan.crash_node(1)
        plan.fail_link(2, 3)
        assert (len(plan.crashed_nodes), len(plan.failed_links)) == (1, 1)
        plan.clear()
        assert not plan.crashed_nodes and not plan.failed_links
        assert plan.revision == 3

    def test_surviving_graph(self, line):
        net = Network(line, delivery_mode="unicast")
        net.crash_node(2)
        survivors = net.broadcast(0, QUERY).reached
        assert survivors == frozenset({0, 1})
        assert 2 not in survivors
