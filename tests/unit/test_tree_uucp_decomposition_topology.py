"""Unit tests for tree topologies, the UUCP generator and the graph
decomposition."""

import math

import pytest

from repro.core.exceptions import DisconnectedGraphError, TopologyError
from repro.network.graph import Graph, complete_graph
from repro.topologies import (
    GraphDecomposition,
    ManhattanTopology,
    TreeTopology,
    UUCPNetworkGenerator,
    decompose,
)
from repro.topologies.tree import (
    ROOT,
    predicted_depth_exponential,
    predicted_depth_factorial,
)


class TestTreeTopology:
    def test_balanced_tree_size(self):
        tree = TreeTopology.balanced(3, 3)
        assert tree.node_count == 1 + 3 + 9 + 27
        assert tree.depth == 3

    def test_root_and_parents(self):
        tree = TreeTopology([2, 2])
        assert tree.root == ROOT
        assert tree.parent((0, 1)) == (0,)
        assert tree.parent(ROOT) == ROOT

    def test_depth_of(self):
        tree = TreeTopology([2, 3])
        assert tree.depth_of(ROOT) == 0
        assert tree.depth_of((1,)) == 1
        assert tree.depth_of((1, 2)) == 2

    def test_path_to_root(self):
        tree = TreeTopology([2, 2, 2])
        path = tree.path_to_root((1, 0, 1))
        assert path == [(1, 0, 1), (1, 0), (1,), ROOT]

    def test_leaves_count(self):
        tree = TreeTopology([2, 3])
        assert len(tree.leaves()) == 6

    def test_unknown_node_rejected(self):
        tree = TreeTopology([2])
        with pytest.raises(ValueError):
            tree.path_to_root((9, 9))

    def test_factorial_profile_has_decreasing_fanout(self):
        tree = TreeTopology.factorial_profile(4, eps=0.5)
        assert tree.branching[0] >= tree.branching[-1]

    def test_exponential_profile_root_fanout_largest(self):
        tree = TreeTopology.exponential_profile(4, eps=1.0)
        assert tree.branching[0] == max(tree.branching)

    def test_factorial_profile_fanouts(self):
        # d(i) = max(2, round(i)) for i = 4..1 from the root down.
        tree = TreeTopology.factorial_profile(4)
        assert list(tree.branching) == [4, 3, 2, 2]
        assert tree.name == "tree-factorial-l4-e0.0"

    def test_exponential_profile_fanouts(self):
        # d(i) = max(2, round(2^i)) for i = 3..1 from the root down.
        tree = TreeTopology.exponential_profile(3)
        assert list(tree.branching) == [8, 4, 2]
        assert tree.name == "tree-exponential-l3-e1.0"

    def test_invalid_branching(self):
        with pytest.raises(TopologyError):
            TreeTopology([0, 2])
        with pytest.raises(TopologyError):
            TreeTopology.balanced(2, 0)


class TestDepthPredictions:
    def test_factorial_prediction_monotone_in_n(self):
        assert predicted_depth_factorial(10**6) > predicted_depth_factorial(10**3)

    def test_factorial_prediction_shrinks_with_eps(self):
        n = 10**6
        assert predicted_depth_factorial(n, eps=1.0) < predicted_depth_factorial(n, eps=0.0)

    def test_exponential_prediction_sqrt_log(self):
        n = 2**16
        assert predicted_depth_exponential(n, c=1.0, eps=1.0) == pytest.approx(
            math.sqrt(2 * 16)
        )

    def test_exponential_quadrupling_eps_halves_depth(self):
        n = 2**20
        deep = predicted_depth_exponential(n, eps=0.5)
        shallow = predicted_depth_exponential(n, eps=2.0)
        assert deep / shallow == pytest.approx(2.0, rel=0.01)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            predicted_depth_factorial(2)
        with pytest.raises(ValueError):
            predicted_depth_exponential(1)


class TestUUCPGenerator:
    def test_size_and_connectivity(self):
        topo = UUCPNetworkGenerator().generate(300, seed=3)
        assert topo.node_count == 300
        assert topo.graph.is_connected()

    def test_edge_count_roughly_double_tree_edges(self):
        topo = UUCPNetworkGenerator(extra_edge_fraction=1.0).generate(400, seed=5)
        assert topo.tree_edge_count == 399
        # Extra edges requested: ~399; locality constraints may drop a few.
        assert topo.extra_edge_count >= 0.5 * topo.tree_edge_count
        assert topo.edge_count == topo.tree_edge_count + topo.extra_edge_count

    def test_zero_extra_edges_gives_tree(self):
        topo = UUCPNetworkGenerator(extra_edge_fraction=0.0).generate(100, seed=1)
        assert topo.edge_count == 99

    def test_preferential_bias_creates_hubs(self):
        flat = UUCPNetworkGenerator(preferential_bias=0.0, extra_edge_fraction=0.0)
        hubby = UUCPNetworkGenerator(preferential_bias=8.0, extra_edge_fraction=0.0)
        flat_max = max(
            flat.generate(500, seed=2).graph.degree_histogram().keys()
        )
        hubby_max = max(
            hubby.generate(500, seed=2).graph.degree_histogram().keys()
        )
        assert hubby_max > flat_max

    def test_deterministic_for_seed(self):
        a = UUCPNetworkGenerator().generate(120, seed=9)
        b = UUCPNetworkGenerator().generate(120, seed=9)
        assert sorted(map(sorted, a.graph.edges)) == sorted(map(sorted, b.graph.edges))

    def test_path_to_root_ends_at_root(self):
        topo = UUCPNetworkGenerator().generate(50, seed=4)
        path = topo.path_to_root(37)
        assert path[0] == 37
        assert path[-1] == topo.root

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UUCPNetworkGenerator(preferential_bias=-1)
        with pytest.raises(ValueError):
            UUCPNetworkGenerator(locality=1)
        with pytest.raises(TopologyError):
            UUCPNetworkGenerator().generate(1)


class TestDecomposition:
    def test_partition_covers_all_nodes(self, grid5):
        decomposition = decompose(grid5.graph)
        covered = [node for block in decomposition.blocks for node in block]
        assert sorted(covered, key=repr) == sorted(grid5.nodes(), key=repr)

    def test_blocks_connected(self, grid5):
        decomposition = decompose(grid5.graph)
        for block in decomposition.blocks:
            assert grid5.graph.induced_subgraph(block).is_connected()

    def test_block_count_is_order_sqrt_n(self):
        topo = ManhattanTopology.square(10)
        decomposition = decompose(topo.graph)
        n = topo.node_count
        assert decomposition.block_count <= math.ceil(math.sqrt(n)) + 1

    def test_block_sizes_near_target(self):
        graph = complete_graph(100)
        decomposition = decompose(graph, target_size=10)
        sizes = [len(block) for block in decomposition.blocks]
        # All blocks except possibly the last reach the target.
        assert all(size >= 10 for size in sizes[:-1])

    def test_labels_within_blocks(self, grid5):
        decomposition = decompose(grid5.graph)
        for block_index, block in enumerate(decomposition.blocks):
            labels = [decomposition.label_of(node) for node in block]
            assert labels == list(range(1, len(block) + 1))
            assert all(
                decomposition.block_of(node) == block_index for node in block
            )

    def test_node_with_label_wraps(self):
        graph = complete_graph(7)
        decomposition = decompose(graph, target_size=3)
        small_block = min(range(decomposition.block_count),
                          key=lambda b: len(decomposition.members(b)))
        size = len(decomposition.members(small_block))
        wrapped = decomposition.node_with_label(small_block, size + 1)
        assert wrapped == decomposition.node_with_label(small_block, 1)

    def test_peers_with_label_one_per_block(self, grid5):
        decomposition = decompose(grid5.graph)
        peers = decomposition.peers_with_label(1)
        assert len(peers) == decomposition.block_count

    def test_disconnected_graph_rejected(self):
        graph = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        with pytest.raises(DisconnectedGraphError):
            decompose(graph)

    def test_invalid_target_rejected(self, grid5):
        with pytest.raises(ValueError):
            decompose(grid5.graph, target_size=0)

    def test_verify_detects_overlap(self):
        graph = complete_graph(4)
        with pytest.raises(ValueError):
            GraphDecomposition(graph, [[0, 1], [1, 2, 3]])

    def test_verify_detects_missing_nodes(self):
        graph = complete_graph(4)
        with pytest.raises(ValueError):
            GraphDecomposition(graph, [[0, 1]])

    def test_works_on_tree_and_ring(self):
        from repro.topologies import RingTopology

        tree = TreeTopology.balanced(2, 5)
        decompose(tree.graph).verify()
        ring = RingTopology(30)
        decompose(ring.graph).verify()
