"""Unit tests for repro.network.graph."""

import random

import pytest
from oracle.graph import diameter, distances

from repro.core.exceptions import DisconnectedGraphError, UnknownNodeError
from repro.network.graph import Graph, complete_graph
from repro.workload import build_topology


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.node_count == 0
        assert len(graph.edges) == 0
        assert graph.is_connected()

    def test_nodes_and_edges_from_constructor(self):
        graph = Graph(nodes=[1, 2, 3], edges=[(1, 2), (2, 3)])
        assert graph.node_count == 3
        assert len(graph.edges) == 2

    def test_add_edge_creates_endpoints(self):
        graph = Graph()
        graph.add_edge("a", "b")
        assert "a" in graph and "b" in graph

    def test_self_loops_ignored(self):
        graph = Graph(nodes=[1])
        graph.add_edge(1, 1)
        assert len(graph.edges) == 0

    def test_parallel_edges_collapsed(self):
        graph = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert len(graph.edges) == 1

    def test_add_node_idempotent(self):
        graph = Graph()
        graph.add_node(1)
        graph.add_node(1)
        assert graph.node_count == 1


class TestMutation:
    def test_copy_is_independent(self):
        graph = Graph(edges=[(1, 2)])
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert graph.node_count == 2
        assert clone.node_count == 3


class TestQueries:
    def test_neighbours_and_degree(self):
        graph = Graph(edges=[(1, 2), (1, 3), (1, 4)])
        assert graph.neighbours(1) == frozenset({2, 3, 4})
        assert graph.degree(1) == 3
        assert graph.degree(2) == 1

    def test_neighbours_of_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError):
            Graph().neighbours(5)

    def test_degree_histogram(self):
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.degree_histogram() == {1: 3, 3: 1}

    def test_len_and_iteration(self):
        graph = Graph(nodes=[1, 2, 3])
        assert len(graph) == 3
        assert sorted(graph) == [1, 2, 3]

    def test_node_set_frozen(self):
        graph = Graph(nodes=[1, 2])
        assert graph.node_set == frozenset({1, 2})

    def test_edges_reported_once(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        assert len(graph.edges) == 2


class TestConnectivity:
    def test_connected_path(self, path_graph):
        assert path_graph.is_connected()
        path_graph.require_connected()

    def test_disconnected_detected(self):
        graph = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        assert not graph.is_connected()
        with pytest.raises(DisconnectedGraphError, match="only 2 are reachable from 1"):
            graph.require_connected()

    def test_component_is_the_set_bfs_order_reaches(self):
        # The BFS order is the spanning tree's keys.
        rng = random.Random(61)
        for trial in range(200):
            nodes = list(range(rng.randint(1, 14)))
            edges = [
                (rng.choice(nodes), rng.choice(nodes))
                for _ in range(rng.randint(0, 2 * len(nodes)))
            ]
            graph = Graph(nodes=nodes, edges=edges)
            for node in nodes:
                assert graph.connected_component(node) == \
                    frozenset(graph.spanning_tree(node)), trial
            assert graph.is_connected() == \
                (len(graph.spanning_tree(nodes[0])) == len(nodes)), trial

    def test_component_of_an_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            Graph(nodes=[1]).connected_component(2)

    def test_connected_components(self):
        graph = Graph(nodes=[1, 2, 3, 4], edges=[(1, 2), (3, 4)])
        assert graph.connected_component(2) == {1, 2}
        assert graph.connected_component(3) == {3, 4}
        assert not graph.is_connected()

    def test_bfs_order_starts_at_source(self, path_graph):
        order = list(path_graph.spanning_tree(3))
        assert order == [3, 2, 4, 1, 5, 0]

    def test_bfs_unknown_source_raises(self):
        with pytest.raises(UnknownNodeError):
            Graph(nodes=[1]).spanning_tree(2)

    def test_distances_path(self, path_graph):
        assert distances(path_graph, 0) == {i: i for i in range(6)}

    def test_diameter_of_path(self, path_graph):
        assert diameter(path_graph) == 5

    def test_diameter_of_complete(self):
        assert diameter(complete_graph(6)) == 1


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        graph = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
        sub = graph.induced_subgraph([1, 2, 3])
        assert sub.node_count == 3
        assert len(sub.edges) == 2

    def test_induced_subgraph_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            Graph(nodes=[1]).induced_subgraph([1, 2])

    def test_spanning_tree_covers_component(self, path_graph):
        parent = path_graph.spanning_tree(0)
        assert set(parent) == set(range(6))
        assert parent[0] == 0
        # Every non-root's parent is strictly closer to the root.
        depth = distances(path_graph, 0)
        for child, par in parent.items():
            if child != 0:
                assert depth[par] == depth[child] - 1

    def test_spanning_tree_unknown_root(self):
        with pytest.raises(UnknownNodeError):
            Graph(nodes=[1]).spanning_tree(7)


class TestCompleteGraph:
    def test_size_and_edges(self):
        graph = complete_graph(10)
        assert graph.node_count == 10
        assert len(graph.edges) == 45

    def test_every_pair_adjacent(self):
        graph = complete_graph(5)
        for u in range(5):
            for v in range(5):
                if u != v:
                    assert graph.has_edge(u, v)

    def test_zero_and_one_node(self):
        assert complete_graph(0).node_count == 0
        assert complete_graph(1).node_count == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(-1)


def _frozenset_dedup_edges(graph):
    """``Graph.edges`` as it was: one frozenset per adjacency entry."""
    seen, result = set(), []
    for u in graph.nodes:
        for v in graph._adjacency[u]:
            if frozenset((u, v)) not in seen:
                seen.add(frozenset((u, v)))
                result.append((u, v))
    return result


class TestEdgesOrder:
    """The flap and partition builders sort ``edges`` by ``repr``, so the
    orientation of each pair is part of its contract, not only the set."""

    @pytest.mark.parametrize(
        "name", ["manhattan:6", "hypercube:5", "ccc:3", "tree:2x4", "ring:12"]
    )
    def test_edges_equal_the_frozenset_dedup_list_in_any_build_order(
        self, name
    ):
        source = build_topology(name).graph
        rng = random.Random(name)
        for _ in range(4):
            nodes = source.nodes
            rng.shuffle(nodes)
            links = [
                (u, v) if rng.random() < 0.5 else (v, u)
                for u, v in source.edges
            ]
            rng.shuffle(links)
            graph = Graph(nodes=nodes[: len(nodes) // 2], edges=links)
            assert graph.edges == _frozenset_dedup_edges(graph)
            assert graph.same_edges(source)
