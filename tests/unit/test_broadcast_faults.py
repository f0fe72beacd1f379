"""Unit tests for repro.network.broadcast and repro.network.faults."""

import pytest

from repro.network.broadcast import flood, multicast, unicast
from repro.network.faults import FaultPlan, surviving_graph
from repro.network.graph import Graph, complete_graph
from repro.network.routing import RoutingTable


@pytest.fixture
def line():
    return Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)])


class TestUnicast:
    def test_cost_is_sum_of_distances(self, line):
        table = RoutingTable(line)
        outcome = unicast(line, table, 0, [1, 3, 4])
        assert outcome.hops == 1 + 3 + 4
        assert outcome.reached == frozenset({1, 3, 4})
        assert not outcome.unreachable

    def test_source_in_destinations_free(self, line):
        table = RoutingTable(line)
        outcome = unicast(line, table, 2, [2])
        assert outcome.hops == 0
        assert outcome.reached == frozenset({2})

    def test_unreachable_destination_reported(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        table = RoutingTable(graph)
        outcome = unicast(graph, table, 0, [1, 2])
        assert outcome.reached == frozenset({0, 1}) - {0} or outcome.reached == frozenset({1})
        assert 2 in outcome.unreachable
        assert outcome.unreachable

    def test_crashed_destination_skipped(self, line):
        table = RoutingTable(line)
        plan = FaultPlan()
        plan.crash_node(3)
        outcome = unicast(line, table, 0, [1, 3], faults=plan)
        assert outcome.reached == frozenset({1})
        assert outcome.unreachable == frozenset({3})

    def test_crashed_intermediate_blocks_route(self, line):
        table = RoutingTable(line)
        plan = FaultPlan()
        plan.crash_node(2)
        outcome = unicast(line, table, 0, [4], faults=plan)
        assert 4 in outcome.unreachable


class TestMulticast:
    def test_shares_tree_edges(self):
        star = Graph(edges=[(0, i) for i in range(1, 6)])
        outcome = multicast(star, 0, [1, 2, 3, 4, 5])
        assert outcome.hops == 5

    def test_line_multicast_costs_path_length(self, line):
        outcome = multicast(line, 0, [4])
        assert outcome.hops == 4

    def test_multicast_cheaper_than_unicast_on_line(self, line):
        table = RoutingTable(line)
        targets = [1, 2, 3, 4]
        assert multicast(line, 0, targets).hops < unicast(line, table, 0, targets).hops

    def test_complete_network_cost_equals_target_count(self):
        graph = complete_graph(9)
        targets = [1, 2, 3, 4]
        assert multicast(graph, 0, targets).hops == len(targets)

    def test_failed_link_forces_detour_or_unreachable(self, line):
        plan = FaultPlan()
        plan.fail_link(1, 2)
        outcome = multicast(line, 0, [4], faults=plan)
        assert outcome.unreachable == frozenset({4})


class TestFlood:
    def test_flood_reaches_everyone(self, line):
        outcome = flood(line, 2)
        assert outcome.reached == frozenset(range(5))
        assert outcome.hops == 4  # spanning tree of 5 nodes

    def test_flood_cost_omega_n(self):
        graph = complete_graph(50)
        assert flood(graph, 0).hops == 49

    def test_flood_respects_partitions(self):
        graph = Graph(nodes=range(4), edges=[(0, 1), (2, 3)])
        outcome = flood(graph, 0)
        assert outcome.reached == frozenset({0, 1})
        assert outcome.unreachable == frozenset({2, 3})

    def test_flood_from_crashed_source(self, line):
        plan = FaultPlan()
        plan.crash_node(0)
        outcome = flood(line, 0, faults=plan)
        assert outcome.reached == frozenset()


class TestFaultPlan:
    def test_crash_and_recover(self):
        plan = FaultPlan()
        plan.crash_node(3)
        assert not plan.node_is_up(3)
        plan.recover_node(3)
        assert plan.node_is_up(3)

    def test_link_failure_affects_link_only(self):
        plan = FaultPlan()
        plan.fail_link(1, 2)
        assert not plan.link_is_up(1, 2)
        assert not plan.link_is_up(2, 1)
        assert plan.node_is_up(1)
        plan.restore_link(2, 1)
        assert plan.link_is_up(1, 2)

    def test_link_down_if_endpoint_down(self):
        plan = FaultPlan()
        plan.crash_node(1)
        assert not plan.link_is_up(1, 2)

    def test_fault_count_and_clear(self):
        plan = FaultPlan()
        plan.crash_node(1)
        plan.fail_link(2, 3)
        assert plan.fault_count == 2
        plan.clear()
        assert plan.fault_count == 0

    def test_surviving_graph(self, line):
        plan = FaultPlan()
        plan.crash_node(2)
        survivor = surviving_graph(line, plan)
        assert 2 not in survivor
        assert not survivor.is_connected()
