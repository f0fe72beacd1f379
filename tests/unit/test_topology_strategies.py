"""Unit tests for the topology-specific strategies: Manhattan/mesh,
hypercube, CCC, projective plane, hierarchy/tree, gateway and subgraph
decomposition."""

import math

import pytest
from oracle.rendezvous import read_sets, validate

from repro.core.exceptions import StrategyError
from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import (
    CubeConnectedCyclesStrategy,
    HierarchicalGatewayStrategy,
    HypercubeStrategy,
    ManhattanStrategy,
    MeshSliceStrategy,
    ProjectivePlaneStrategy,
    SubgraphDecompositionStrategy,
    SupervisorHierarchyStrategy,
    TreePathStrategy,
)
from repro.topologies import (
    CompleteTopology,
    CubeConnectedCyclesTopology,
    HierarchicalTopology,
    HypercubeTopology,
    ManhattanTopology,
    MeshTopology,
    ProjectivePlaneTopology,
    TreeTopology,
    UUCPNetworkGenerator,
    decompose,
)
from repro.topologies.tree import ROOT


class TestManhattanStrategy:
    def test_post_is_row_query_is_column(self, grid5):
        strategy = ManhattanStrategy(grid5)
        assert strategy.post_set((2, 3)) == frozenset((2, c) for c in range(5))
        assert strategy.query_set((2, 3)) == frozenset((r, 3) for r in range(5))

    def test_unique_rendezvous(self, grid5):
        strategy = ManhattanStrategy(grid5)
        assert strategy.rendezvous_set((1, 2), (3, 4)) == frozenset({(1, 4)})

    def test_paper_9_node_matrix(self):
        # Section 3.1 prints the 3x3 grid's matrix with nodes numbered 1..9.
        grid = ManhattanTopology(3, 3)
        strategy = ManhattanStrategy(grid)
        matrix = RendezvousMatrix.from_strategy(strategy, grid.nodes())
        number = {(r, c): 3 * r + c + 1 for r in range(3) for c in range(3)}
        printed = [
            [1, 2, 3, 1, 2, 3, 1, 2, 3],
            [1, 2, 3, 1, 2, 3, 1, 2, 3],
            [1, 2, 3, 1, 2, 3, 1, 2, 3],
            [4, 5, 6, 4, 5, 6, 4, 5, 6],
            [4, 5, 6, 4, 5, 6, 4, 5, 6],
            [4, 5, 6, 4, 5, 6, 4, 5, 6],
            [7, 8, 9, 7, 8, 9, 7, 8, 9],
            [7, 8, 9, 7, 8, 9, 7, 8, 9],
            [7, 8, 9, 7, 8, 9, 7, 8, 9],
        ]
        ordered_nodes = sorted(grid.nodes(), key=lambda n: number[n])
        for i, server in enumerate(ordered_nodes):
            for j, client in enumerate(ordered_nodes):
                entry = matrix.entry(server, client)
                assert {number[node] for node in entry} == {printed[i][j]}

    def test_average_cost_p_plus_q(self):
        grid = ManhattanTopology(4, 6)
        matrix = RendezvousMatrix.from_strategy(ManhattanStrategy(grid), grid.nodes())
        assert matrix.average_cost() == pytest.approx(4 + 6)

    def test_square_cost_2_sqrt_n(self, grid5):
        matrix = RendezvousMatrix.from_strategy(ManhattanStrategy(grid5), grid5.nodes())
        assert matrix.average_cost() == pytest.approx(2 * math.sqrt(25))

    def test_requires_manhattan_topology(self):
        with pytest.raises(StrategyError):
            ManhattanStrategy(CompleteTopology(9))

    def test_cache_requirement_is_row_size(self, grid5):
        # Every rendezvous node stores postings of the servers in its row:
        # that is at most `cols` = sqrt(n) postings per port.
        strategy = ManhattanStrategy(grid5)
        node = (2, 2)
        posters = [s for s in grid5.nodes() if node in strategy.post_set(s)]
        assert len(posters) == 5


class TestMeshSliceStrategy:
    def test_default_axes_match_2d_manhattan(self):
        mesh = MeshTopology([4, 4])
        strategy = MeshSliceStrategy(mesh)
        assert strategy.post_set((1, 2)) == frozenset((1, c) for c in range(4))
        assert strategy.query_set((1, 2)) == frozenset((r, 2) for r in range(4))

    def test_three_dimensional_intersection_nonempty(self):
        mesh = MeshTopology([3, 3, 3])
        strategy = MeshSliceStrategy(mesh)
        assert validate(mesh.nodes(), *read_sets(strategy, mesh.nodes())) == []

    def test_cost_is_2_n_to_the_d_minus_1_over_d(self):
        side, d = 4, 3
        mesh = MeshTopology([side] * d)
        matrix = RendezvousMatrix.from_strategy(MeshSliceStrategy(mesh), mesh.nodes())
        n = side**d
        assert matrix.average_cost() == pytest.approx(2 * n ** ((d - 1) / d))

    def test_intersection_size_is_side_to_the_d_minus_2(self):
        mesh = MeshTopology([3, 3, 3])
        strategy = MeshSliceStrategy(mesh)
        assert len(strategy.rendezvous_set((0, 0, 0), (1, 1, 1))) == 3

    def test_overlapping_axes_rejected(self):
        mesh = MeshTopology([3, 3])
        with pytest.raises(StrategyError):
            MeshSliceStrategy(mesh, post_fixed_axes=(0,), query_fixed_axes=(0,))

    def test_axis_out_of_range_rejected(self):
        mesh = MeshTopology([3, 3])
        with pytest.raises(StrategyError):
            MeshSliceStrategy(mesh, post_fixed_axes=(5,))

    def test_empty_axis_set_rejected(self):
        mesh = MeshTopology([3, 3])
        with pytest.raises(StrategyError):
            MeshSliceStrategy(mesh, post_fixed_axes=())


class TestHypercubeStrategy:
    def test_example6_matrix(self, cube3):
        strategy = HypercubeStrategy(cube3, server_prefix_bits=1)
        matrix = RendezvousMatrix.from_strategy(strategy, cube3.nodes())
        # Paper Example 6: entry(server=abc, client=xyz) = a·yz.
        for server in cube3.nodes():
            for client in cube3.nodes():
                expected = server[0] + client[1:]
                assert matrix.entry(server, client) == frozenset({expected})

    def test_balanced_split_cost(self):
        cube = HypercubeTopology(6)
        strategy = HypercubeStrategy(cube)
        matrix = RendezvousMatrix.from_strategy(strategy, cube.nodes())
        assert matrix.average_cost() == pytest.approx(2 * math.sqrt(64))

    def test_unbalanced_split_cost(self):
        cube = HypercubeTopology(6)
        strategy = HypercubeStrategy(cube, server_prefix_bits=2)
        assert strategy.addressed_nodes() == 2**4 + 2**2

    def test_rendezvous_is_server_prefix_then_client_suffix(self, cube3):
        strategy = HypercubeStrategy(cube3, server_prefix_bits=1)
        assert strategy.rendezvous_set("011", "101") == frozenset({"001"})

    def test_every_pair_has_single_rendezvous(self):
        cube = HypercubeTopology(4)
        strategy = HypercubeStrategy(cube)
        for server in cube.nodes():
            for client in cube.nodes():
                assert len(strategy.rendezvous_set(server, client)) == 1

    def test_invalid_split_rejected(self, cube3):
        with pytest.raises(StrategyError):
            HypercubeStrategy(cube3, server_prefix_bits=7)

    def test_requires_hypercube(self):
        with pytest.raises(StrategyError):
            HypercubeStrategy(CompleteTopology(8))


class TestCCCStrategy:
    def test_total_on_ccc3(self):
        topo = CubeConnectedCyclesTopology(3)
        strategy = CubeConnectedCyclesStrategy(topo)
        assert validate(topo.nodes(), *read_sets(strategy, topo.nodes())) == []

    def test_rendezvous_mixes_client_prefix_and_server_suffix(self):
        topo = CubeConnectedCyclesTopology(4)
        strategy = CubeConnectedCyclesStrategy(topo)
        server, client = (2, "0110"), (1, "1001")
        # The server's cycle position at corner client[:2] + server[2:].
        assert strategy.rendezvous_set(server, client) == frozenset({(2, "1010")})

    def test_expected_costs_orders(self):
        topo = CubeConnectedCyclesTopology(4)
        strategy = CubeConnectedCyclesStrategy(topo)
        post_size, query_size = strategy.expected_costs()
        n = topo.node_count
        d = topo.dimensions
        assert post_size == len(strategy.post_set((0, "0000")))
        assert query_size == len(strategy.query_set((0, "0000")))
        # #P ~ sqrt(n/d), #Q ~ sqrt(n*d) within a factor of 2.
        assert post_size <= 2 * math.sqrt(n / d) + 1
        assert query_size <= 2 * math.sqrt(n * d) + 1

    def test_cache_load_is_sqrt_n_over_log_n(self):
        topo = CubeConnectedCyclesTopology(4)
        strategy = CubeConnectedCyclesStrategy(topo)
        target = (0, "0000")
        posters = [s for s in topo.nodes() if target in strategy.post_set(s)]
        d = topo.dimensions
        assert len(posters) == 2 ** (d - math.ceil(d / 2))


class TestProjectiveStrategy:
    def test_cost_2k_plus_2(self):
        plane = ProjectivePlaneTopology(3)
        strategy = ProjectivePlaneStrategy(plane)
        matrix = RendezvousMatrix.from_strategy(strategy, plane.nodes())
        assert matrix.average_cost() == pytest.approx(2 * (3 + 1))
        assert matrix.is_total()

    def test_post_line_contains_host(self):
        plane = ProjectivePlaneTopology(2)
        strategy = ProjectivePlaneStrategy(plane)
        for point in plane.points:
            assert point in strategy.post_set(point)
            assert point in strategy.query_set(point)

    def test_rendezvous_point_on_both_lines(self):
        plane = ProjectivePlaneTopology(3)
        strategy = ProjectivePlaneStrategy(plane)
        server, client = plane.points[0], plane.points[5]
        meeting = strategy.rendezvous_point(server, client)
        assert meeting in strategy.post_set(server)
        assert meeting in strategy.query_set(client)

    def test_same_index_lines_allowed(self):
        plane = ProjectivePlaneTopology(2)
        strategy = ProjectivePlaneStrategy(plane, post_line_index=0, query_line_index=0)
        assert validate(plane.nodes(), *read_sets(strategy, plane.nodes())) == []

    def test_invalid_line_index(self):
        plane = ProjectivePlaneTopology(2)
        with pytest.raises(StrategyError):
            ProjectivePlaneStrategy(plane, post_line_index=5)


class TestSupervisorHierarchy:
    def test_example5_matrix(self):
        strategy = SupervisorHierarchyStrategy.example5()
        printed = {
            (1, 1): 7, (1, 3): 7, (2, 2): 7, (3, 1): 7,
            (1, 4): 9, (4, 1): 9, (4, 4): 8, (5, 6): 8,
            (7, 1): 9, (7, 7): 9, (9, 9): 9, (8, 5): 9, (3, 9): 9,
        }
        for (server, client), expected in printed.items():
            assert strategy.lowest_common_supervisor(server, client) == expected

    def test_post_set_is_supervisor_chain(self):
        strategy = SupervisorHierarchyStrategy.example5()
        assert strategy.post_set(1) == frozenset({7, 9})
        assert strategy.post_set(7) == frozenset({9})
        assert strategy.post_set(9) == frozenset({9})

    def test_total(self):
        strategy = SupervisorHierarchyStrategy.example5()
        assert validate(range(1, 10), *read_sets(strategy, range(1, 10))) == []

    def test_cycle_detected(self):
        with pytest.raises(StrategyError):
            SupervisorHierarchyStrategy({1: 2, 2: 1})

    def test_unknown_supervisor_detected(self):
        with pytest.raises(StrategyError):
            SupervisorHierarchyStrategy({1: 2})

    def test_unknown_node_rejected(self):
        strategy = SupervisorHierarchyStrategy.example5()
        with pytest.raises(StrategyError):
            strategy.post_set(42)


class TestTreePathStrategy:
    def test_post_equals_query_equals_path(self):
        tree = TreeTopology.balanced(2, 3)
        strategy = TreePathStrategy(tree)
        node = (1, 0, 1)
        assert strategy.post_set(node) == frozenset(tree.path_to_root(node))
        assert strategy.post_set(node) == strategy.query_set(node)

    def test_rendezvous_is_the_path_from_the_common_ancestor_up(self):
        tree = TreeTopology.balanced(2, 3)
        strategy = TreePathStrategy(tree)
        assert strategy.rendezvous_set((0, 0, 0), (0, 1, 1)) == frozenset({(0,), ()})
        assert strategy.rendezvous_set((0, 0, 0), (1, 1, 1)) == frozenset({()})

    def test_cost_bounded_by_depth(self):
        tree = TreeTopology.balanced(3, 4)
        strategy = TreePathStrategy(tree)
        matrix = RendezvousMatrix.from_strategy(strategy, tree.nodes())
        assert matrix.max_cost() <= 2 * (tree.depth + 1)

    def test_works_on_uucp_topology(self):
        topo = UUCPNetworkGenerator().generate(60, seed=2)
        strategy = TreePathStrategy(topo)
        assert validate(topo.graph.nodes, *read_sets(strategy, topo.graph.nodes)) == []

    def test_rejects_other_topologies(self):
        with pytest.raises(StrategyError):
            TreePathStrategy(CompleteTopology(4))

    def test_root_cache_burden_is_whole_tree(self):
        tree = TreeTopology.balanced(2, 3)
        strategy = TreePathStrategy(tree)
        posters_at_root = [
            node for node in tree.nodes() if ROOT in strategy.post_set(node)
        ]
        assert len(posters_at_root) == tree.node_count


class TestHierarchicalGatewayStrategy:
    def test_total_on_uniform_hierarchy(self):
        topo = HierarchicalTopology.uniform(3, 3)
        strategy = HierarchicalGatewayStrategy(topo)
        assert validate(topo.nodes(), *read_sets(strategy, topo.nodes())) == []

    def test_cheaper_than_flat_checkerboard_for_deep_hierarchy(self):
        topo = HierarchicalTopology.uniform(4, 3)  # n = 64
        strategy = HierarchicalGatewayStrategy(topo)
        matrix = RendezvousMatrix.from_strategy(strategy, topo.nodes())
        assert matrix.average_cost() < 2 * math.sqrt(64)

    def test_requires_hierarchical_topology(self):
        with pytest.raises(StrategyError):
            HierarchicalGatewayStrategy(CompleteTopology(8))


class TestSubgraphDecompositionStrategy:
    def test_total_on_grid(self, grid5):
        decomposition = decompose(grid5.graph)
        strategy = SubgraphDecompositionStrategy(decomposition)
        assert validate(grid5.nodes(), *read_sets(strategy, grid5.nodes())) == []

    def test_query_is_own_block(self, grid5):
        decomposition = decompose(grid5.graph)
        strategy = SubgraphDecompositionStrategy(decomposition)
        node = grid5.nodes()[7]
        block = decomposition.block_of(node)
        assert strategy.query_set(node) == frozenset(decomposition.members(block))

    def test_post_one_per_block(self, grid5):
        decomposition = decompose(grid5.graph)
        strategy = SubgraphDecompositionStrategy(decomposition)
        node = grid5.nodes()[3]
        assert len(strategy.post_set(node)) <= decomposition.block_count

    def test_rendezvous_in_client_block(self, grid5):
        decomposition = decompose(grid5.graph)
        strategy = SubgraphDecompositionStrategy(decomposition)
        server, client = grid5.nodes()[0], grid5.nodes()[20]
        meeting = strategy.rendezvous_set(server, client)
        assert {decomposition.block_of(node) for node in meeting} == \
            {decomposition.block_of(client)}

    def test_query_cost_is_sqrt_n_scale(self):
        topo = ManhattanTopology.square(10)
        decomposition = decompose(topo.graph)
        strategy = SubgraphDecompositionStrategy(decomposition)
        max_query = max(len(strategy.query_set(node)) for node in topo.nodes())
        assert max_query <= 3 * math.sqrt(topo.node_count)

    def test_works_on_uucp(self):
        topo = UUCPNetworkGenerator().generate(150, seed=5)
        decomposition = decompose(topo.graph)
        strategy = SubgraphDecompositionStrategy(decomposition)
        assert validate(topo.graph.nodes, *read_sets(strategy, topo.graph.nodes)) == []
