"""Unit tests for complete and ring topologies and the Topology base."""

import pytest
from oracle.graph import diameter

from repro.core.exceptions import TopologyError
from repro.network.simulator import Network
from repro.topologies import CompleteTopology, RingTopology


class TestCompleteTopology:
    def test_size_and_edges(self):
        topo = CompleteTopology(7)
        assert topo.node_count == 7
        assert len(topo.graph.edges) == 21

    def test_diameter_one(self):
        assert diameter(CompleteTopology(5).graph) == 1

    def test_invalid_size(self):
        with pytest.raises(TopologyError):
            CompleteTopology(0)

    def test_build_network(self):
        network = CompleteTopology(4).build_network(delivery_mode="ideal")
        assert isinstance(network, Network)
        assert network.size == 4


class TestRingTopology:
    def test_every_node_degree_two(self):
        ring = RingTopology(10)
        assert all(ring.graph.degree(node) == 2 for node in ring.nodes())

    def test_edge_count_equals_node_count(self):
        ring = RingTopology(8)
        assert len(ring.graph.edges) == 8

    def test_diameter_half_of_n(self):
        assert diameter(RingTopology(10).graph) == 5
        assert diameter(RingTopology(11).graph) == 5

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            RingTopology(2)

    def test_connected(self):
        assert RingTopology(25).graph.is_connected()


class TestTopologyBase:
    def test_nodes_listing(self):
        topo = CompleteTopology(3)
        assert sorted(topo.nodes()) == [0, 1, 2]
