"""End-to-end integration tests: strategies driven through the simulator,
the full service model, and cross-module consistency of cost accounting."""

import math
import random

import pytest

from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.processes import DistributedSystem
from repro.strategies import (
    CheckerboardStrategy,
    CubeConnectedCyclesStrategy,
    HierarchicalGatewayStrategy,
    HypercubeStrategy,
    ManhattanStrategy,
    ProjectivePlaneStrategy,
    SubgraphDecompositionStrategy,
    TreePathStrategy,
)
from repro.topologies import (
    CubeConnectedCyclesTopology,
    HierarchicalTopology,
    HypercubeTopology,
    ManhattanTopology,
    ProjectivePlaneTopology,
    TreeTopology,
    UUCPNetworkGenerator,
    decompose,
)

PORT = Port("end-to-end")


def build(topology, strategy, mode="multicast"):
    network = Network(topology.graph, delivery_mode=mode)
    return network, MatchMaker(network, strategy)


TOPOLOGY_STRATEGY_PAIRS = [
    ("manhattan", lambda: _manhattan()),
    ("hypercube", lambda: _hypercube()),
    ("ccc", lambda: _ccc()),
    ("projective", lambda: _projective()),
    ("hierarchical", lambda: _hierarchical()),
    ("tree", lambda: _tree()),
    ("uucp-subgraph", lambda: _uucp()),
]


def _manhattan():
    topo = ManhattanTopology.square(6)
    return topo, ManhattanStrategy(topo)


def _hypercube():
    topo = HypercubeTopology(5)
    return topo, HypercubeStrategy(topo)


def _ccc():
    topo = CubeConnectedCyclesTopology(3)
    return topo, CubeConnectedCyclesStrategy(topo)


def _projective():
    topo = ProjectivePlaneTopology(3)
    return topo, ProjectivePlaneStrategy(topo)


def _hierarchical():
    topo = HierarchicalTopology.uniform(3, 3)
    return topo, HierarchicalGatewayStrategy(topo)


def _tree():
    topo = TreeTopology.balanced(3, 3)
    return topo, TreePathStrategy(topo)


def _uucp():
    topo = UUCPNetworkGenerator().generate(120, seed=8)
    return topo, SubgraphDecompositionStrategy(decompose(topo.graph))


class TestEveryTopologyStrategyPairLocates:
    @pytest.mark.parametrize(
        "name,factory", TOPOLOGY_STRATEGY_PAIRS, ids=[n for n, _ in TOPOLOGY_STRATEGY_PAIRS]
    )
    def test_random_pairs_always_match(self, name, factory):
        topology, strategy = factory()
        network, matchmaker = build(topology, strategy)
        rng = random.Random(99)
        nodes = (
            topology.nodes() if hasattr(topology, "nodes") else topology.graph.nodes
        )
        for _ in range(15):
            server_node, client_node = rng.choice(nodes), rng.choice(nodes)
            result = matchmaker.match_instance(server_node, client_node, PORT)
            assert result.found, f"{name}: no match for {server_node}->{client_node}"
            assert result.match_messages >= 0

    @pytest.mark.parametrize(
        "name,factory", TOPOLOGY_STRATEGY_PAIRS, ids=[n for n, _ in TOPOLOGY_STRATEGY_PAIRS]
    )
    def test_matrix_total_and_bounded(self, name, factory):
        topology, strategy = factory()
        nodes = (
            topology.nodes() if hasattr(topology, "nodes") else topology.graph.nodes
        )
        matrix = RendezvousMatrix.from_strategy(strategy, nodes)
        assert matrix.is_total()
        from repro.core.bounds import verify_proposition2

        measured, bound = verify_proposition2(matrix)
        assert measured >= bound - 1e-9


class TestHopAccountingConsistency:
    def test_ideal_mode_hops_equal_addressed_nodes_minus_self(self):
        topo = ManhattanTopology.square(5)
        strategy = CheckerboardStrategy(topo.nodes())
        network, matchmaker = build(topo, strategy, mode="ideal")
        result = matchmaker.match_instance((0, 0), (4, 4), PORT)
        self_posts = 1 if (0, 0) in strategy.post_set((0, 0)) else 0
        self_queries = 1 if (4, 4) in strategy.query_set((4, 4)) else 0
        addressed = result.nodes_posted + result.nodes_queried
        assert result.match_messages == addressed - self_posts - self_queries

    def test_multicast_mode_never_cheaper_than_spanning_tree(self):
        topo = ManhattanTopology.square(5)
        strategy = ManhattanStrategy(topo)
        network, matchmaker = build(topo, strategy, mode="multicast")
        result = matchmaker.match_instance((2, 2), (3, 3), PORT)
        # Row and column of 5 nodes each: 4 tree edges each side.
        assert result.match_messages == 8

    def test_network_stats_match_result_totals(self):
        topo = ManhattanTopology.square(4)
        strategy = ManhattanStrategy(topo)
        network, matchmaker = build(topo, strategy)
        network.reset_stats()
        matchmaker.register_server((0, 0), PORT)
        located = matchmaker.locate((3, 3), PORT)
        assert located.found
        assert network.stats.hops["reply"] == located.reply_messages


class TestServiceModelOnVariousTopologies:
    @pytest.mark.parametrize("factory", [_manhattan, _hypercube, _hierarchical])
    def test_request_reply_on_topology(self, factory):
        topology, strategy = factory()
        system = DistributedSystem(topology.build_network(), strategy)
        nodes = topology.nodes()
        system.create_server(nodes[0], PORT, handler=lambda x: x + 1)
        client = system.create_client(nodes[-1])
        assert system.request(client, PORT, 41).reply == 42

    def test_many_services_many_clients(self):
        topo = ManhattanTopology.square(6)
        system = DistributedSystem(topo.build_network(), ManhattanStrategy(topo))
        rng = random.Random(5)
        ports = [Port(f"svc-{i}") for i in range(10)]
        for port in ports:
            system.create_server(rng.choice(topo.nodes()), port,
                                 handler=lambda x, p=port: (p.name, x))
        clients = [system.create_client(rng.choice(topo.nodes())) for _ in range(8)]
        successes = 0
        for client in clients:
            for port in rng.sample(ports, 4):
                outcome = system.request(client, port, "payload")
                successes += outcome.ok
        assert successes == 8 * 4

    def test_migration_storm_consistency(self):
        topo = ManhattanTopology.square(5)
        system = DistributedSystem(topo.build_network(), ManhattanStrategy(topo))
        rng = random.Random(31)
        server = system.create_server((0, 0), PORT, handler=lambda x: x * 2)
        client = system.create_client((4, 4))
        for step in range(12):
            assert system.request(client, PORT, step).reply == step * 2
            system.migrate_server(server, rng.choice(topo.nodes()))
        assert system.stats.migrations == 12


class TestScalingShapes:
    def test_checkerboard_cost_scales_as_sqrt_n(self):
        from repro.analysis import fit_power_law

        points = []
        for n in (16, 64, 256):
            universe = list(range(n))
            matrix = RendezvousMatrix.from_strategy(
                CheckerboardStrategy(universe), universe
            )
            points.append((n, matrix.average_cost()))
        _, exponent = fit_power_law(points)
        assert exponent == pytest.approx(0.5, abs=0.05)

    def test_tree_cost_scales_logarithmically(self):
        costs = []
        for levels in (2, 4, 6):
            tree = TreeTopology.balanced(2, levels)
            matrix = RendezvousMatrix.from_strategy(TreePathStrategy(tree), tree.nodes())
            costs.append((tree.node_count, matrix.average_cost()))
        # Cost grows far slower than sqrt(n): compare largest against bound.
        n_large, cost_large = costs[-1]
        assert cost_large < 2 * math.sqrt(n_large)
        assert cost_large < 3 * math.log2(n_large)
