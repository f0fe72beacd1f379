"""Unit tests for repro.network.routing."""

import random

import pytest

from repro.core.exceptions import NoRouteError, UnknownNodeError
from repro.network.faults import FaultPlan, surviving_graph
from repro.network.graph import Graph, complete_graph
from repro.network.routing import (
    RoutingTable,
    multicast_tree_cost,
    path_cost,
    route_cost,
)
from repro.network.simulator import Network
from repro.workload import build_topology


@pytest.fixture
def path_table(path_graph):
    return RoutingTable(path_graph)


class TestDistances:
    def test_distance_on_path(self, path_table):
        assert path_table.distance(0, 5) == 5
        assert path_table.distance(2, 2) == 0

    def test_distance_symmetric(self, path_table):
        assert path_table.distance(1, 4) == path_table.distance(4, 1)

    def test_complete_graph_all_one(self):
        table = RoutingTable(complete_graph(8))
        for u in range(8):
            for v in range(8):
                if u != v:
                    assert table.distance(u, v) == 1

    def test_unknown_destination_raises(self, path_table):
        with pytest.raises(UnknownNodeError):
            path_table.distance(0, 99)

    def test_no_route_raises(self):
        graph = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        table = RoutingTable(graph)
        with pytest.raises(NoRouteError):
            table.distance(1, 3)

    def test_has_route(self):
        graph = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        table = RoutingTable(graph)
        assert table.has_route(1, 2)
        assert not table.has_route(1, 3)

    def test_eccentricity(self, path_table):
        assert path_table.eccentricity(0) == 5
        assert path_table.eccentricity(3) == 3


class TestNextHopAndPaths:
    def test_next_hop_moves_towards_destination(self, path_table):
        assert path_table.next_hop(0, 5) == 1
        assert path_table.next_hop(5, 0) == 4

    def test_next_hop_to_self(self, path_table):
        assert path_table.next_hop(2, 2) == 2

    def test_shortest_path_endpoints_and_length(self, path_table):
        path = path_table.shortest_path(1, 4)
        assert path[0] == 1 and path[-1] == 4
        assert len(path) - 1 == path_table.distance(1, 4)

    def test_shortest_path_is_walk(self, path_graph, path_table):
        path = path_table.shortest_path(0, 5)
        for u, v in zip(path, path[1:]):
            assert path_graph.has_edge(u, v)

    def test_path_cost(self, path_table):
        assert path_cost(path_table, [0, 1, 2]) == 2
        assert path_cost(path_table, []) == 0

    def test_invalidate_after_graph_change(self, path_graph):
        table = RoutingTable(path_graph)
        assert table.distance(0, 5) == 5
        path_graph.add_edge(0, 5)
        table.invalidate()
        assert table.distance(0, 5) == 1


class TestCostHelpers:
    def test_route_cost_sums_distances(self, path_table):
        assert route_cost(path_table, 0, [1, 2, 3]) == 1 + 2 + 3

    def test_route_cost_skips_source(self, path_table):
        assert route_cost(path_table, 0, [0]) == 0

    def test_multicast_tree_cost_on_path(self, path_graph):
        # Reaching nodes 1..5 from 0 along the path uses 5 edges.
        assert multicast_tree_cost(path_graph, 0, [1, 2, 3, 4, 5]) == 5

    def test_multicast_tree_cost_shares_edges(self):
        # A star: reaching all 4 leaves costs 4 edges, not 4 separate paths.
        star = Graph(edges=[(0, i) for i in range(1, 5)])
        assert multicast_tree_cost(star, 0, [1, 2, 3, 4]) == 4

    def test_multicast_tree_cost_equals_addressed_nodes_when_connected(self):
        # Paper 2.3.5: if the addressed set induces a connected subgraph
        # containing the source, spanning-tree broadcast costs exactly the
        # number of addressed nodes (excluding the source).
        graph = complete_graph(10)
        targets = [1, 2, 3, 4]
        assert multicast_tree_cost(graph, 0, targets) == len(targets)

    def test_multicast_unreachable_raises(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        with pytest.raises(NoRouteError):
            multicast_tree_cost(graph, 0, [2])


class TestReversePathBeam:
    def test_beam_length_respected_on_grid(self):
        from repro.topologies import ManhattanTopology

        topo = ManhattanTopology.square(6)
        table = RoutingTable(topo.graph)
        rng = random.Random(1)
        beam = table.reverse_path_beam((0, 0), 5, rng)
        assert len(beam) == 5

    def test_beam_moves_away_from_origin(self):
        from repro.topologies import ManhattanTopology

        topo = ManhattanTopology.square(8)
        table = RoutingTable(topo.graph)
        rng = random.Random(7)
        beam = table.reverse_path_beam((0, 0), 6, rng)
        distances = [table.distance((0, 0), node) for node in beam]
        # Distances from the origin never decrease along the beam.
        assert all(b >= a for a, b in zip(distances, distances[1:]))
        assert distances[-1] == 6

    def test_beam_stops_at_network_edge(self, path_graph):
        table = RoutingTable(path_graph)
        rng = random.Random(3)
        beam = table.reverse_path_beam(0, 50, rng)
        # The path has only 5 nodes beyond the origin; the beam cannot be
        # longer than that while moving away (it may bounce at the end).
        assert len(beam) <= 50
        assert 5 in beam  # reached the far end

    def test_negative_length_rejected(self, path_graph):
        table = RoutingTable(path_graph)
        with pytest.raises(ValueError):
            table.reverse_path_beam(0, -1, random.Random(0))

    def test_unknown_origin_rejected(self, path_graph):
        table = RoutingTable(path_graph)
        with pytest.raises(UnknownNodeError):
            table.reverse_path_beam(99, 2, random.Random(0))

    def test_beam_deterministic_for_same_seed(self):
        from repro.topologies import ManhattanTopology

        topo = ManhattanTopology.square(5)
        table = RoutingTable(topo.graph)
        beam_a = table.reverse_path_beam((2, 2), 4, random.Random(5))
        beam_b = table.reverse_path_beam((2, 2), 4, random.Random(5))
        assert beam_a == beam_b


def _reference_tables(graph, source):
    """Breadth-first search that sorts a node's neighbours at every visit —
    what ``RoutingTable._build`` did before it kept the order per node."""
    next_hop = {source: source}
    distance = {source: 0}
    queue = [source]
    while queue:
        node = queue.pop(0)
        for neighbour in sorted(graph.neighbours(node), key=repr):
            if neighbour not in distance:
                distance[neighbour] = distance[node] + 1
                next_hop[neighbour] = (
                    neighbour if node == source else next_hop[node]
                )
                queue.append(neighbour)
    return next_hop, distance


def _assert_tables_match_reference(table, graph):
    for source in graph.nodes:
        next_hop, distance = _reference_tables(graph, source)
        assert dict(table.distance_map(source)) == distance
        # Insertion order is the visit order: it must not move either.
        assert list(table.distance_map(source)) == list(distance)
        for destination in graph.nodes:
            if destination in next_hop:
                assert table.next_hop(source, destination) == next_hop[destination]
                assert table.distance(source, destination) == distance[destination]
            else:
                assert not table.has_route(source, destination)
                with pytest.raises(NoRouteError):
                    table.next_hop(source, destination)


class TestOnceSortedNeighbours:
    """A table sorts each node's neighbours once; every table it serves is
    the one a per-visit sort would have built."""

    # The ledger grid's three topologies plus faulted_churn's.
    TOPOLOGIES = ("complete:36", "manhattan:6", "hypercube:5", "manhattan:8")

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_tables_equal_reference_bfs(self, name):
        graph = build_topology(name).graph
        table = RoutingTable(graph)
        _assert_tables_match_reference(table, graph)
        table.invalidate()
        _assert_tables_match_reference(table, graph)

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_tables_equal_reference_bfs_over_a_surviving_graph(self, name):
        graph = build_topology(name).graph
        rng = random.Random(name)
        plan = FaultPlan()
        for node in rng.sample(graph.nodes, 3):
            plan.crash_node(node)
        for u, v in rng.sample(sorted(graph.edges, key=repr), 6):
            plan.fail_link(u, v)
        survivors = surviving_graph(graph, plan)
        _assert_tables_match_reference(RoutingTable(survivors), survivors)

    def test_invalidate_forgets_the_neighbour_order(self):
        graph = Graph(nodes=range(4), edges=[(0, 1), (1, 2), (2, 3)])
        table = RoutingTable(graph)
        assert table.distance(0, 3) == 3
        graph.add_edge(0, 3)
        table.invalidate()
        assert table.distance(0, 3) == 1
        _assert_tables_match_reference(table, graph)


def _partitioned_graph():
    """``manhattan:5`` with a crashed node and its middle column's links
    cut: two components and one survivor with no channel at all."""
    graph = build_topology("manhattan:5").graph
    plan = FaultPlan()
    plan.crash_node((4, 4))
    for row in range(5):
        plan.fail_link((row, 1), (row, 2))
    plan.fail_link((0, 0), (0, 1))
    plan.fail_link((0, 0), (1, 0))
    return surviving_graph(graph, plan)


def _answer(table, source, destination):
    """What ``distance`` says, errors included, as a comparable value."""
    try:
        return table.distance(source, destination)
    except (NoRouteError, UnknownNodeError) as error:
        return type(error), error.args


class TestDistanceFromEitherRow:
    """Channels are undirected, so ``distance(a, b)`` may answer from
    ``b``'s row.  Whichever rows happen to exist, every pair — unknown and
    unreachable ends included — gets the answer, or the very error, that a
    table with only ``a``'s row built would give."""

    GRAPHS = {
        "manhattan:6": lambda: build_topology("manhattan:6").graph,
        "hypercube:5": lambda: build_topology("hypercube:5").graph,
        "partitioned": _partitioned_graph,
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_symmetric_and_error_identical_whichever_rows_exist(self, name):
        graph = self.GRAPHS[name]()
        ends = sorted(graph.nodes, key=repr) + ["nowhere", (4, 4)]
        expected = {}
        for source in ends:  # only the source's row ever exists here
            for destination in ends:
                expected[source, destination] = _answer(
                    RoutingTable(graph), source, destination
                )
        rng = random.Random(name)
        for built in (0, 1, len(graph.nodes) // 2, len(graph.nodes)):
            table = RoutingTable(graph)
            for source in rng.sample(graph.nodes, built):
                table.distance_map(source)
            rows_before = len(table._distance)
            for (source, destination), answer in expected.items():
                assert _answer(table, source, destination) == answer
                if isinstance(answer, int):
                    assert expected[destination, source] == answer
            if built == len(graph.nodes):
                assert len(table._distance) == rows_before  # nothing new

    def test_the_other_ends_row_saves_the_search(self, monkeypatch):
        graph = build_topology("manhattan:6").graph
        table = RoutingTable(graph)
        table.distance_map((0, 0))
        built = []
        real = RoutingTable._build
        monkeypatch.setattr(
            RoutingTable, "_build",
            lambda self, source: built.append(source) or real(self, source),
        )
        assert table.distance((5, 5), (0, 0)) == 10  # read from (0, 0)'s row
        assert built == []
        assert table.distance((5, 5), (3, 3)) == 4  # neither row exists
        assert built == [(5, 5)]


def _fault_plans(graph, seed):
    """Seeded crash and link-failure sets over ``graph``: mixed, crashes
    only, links only, and a partition — every link around a BFS region
    cut, one node inside it crashed."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges, key=repr)
    plans = []
    for crashes, cuts in ((2, 4), (3, 0), (0, 6)):
        plan = FaultPlan()
        for node in rng.sample(nodes, crashes):
            plan.crash_node(node)
        for u, v in rng.sample(edges, cuts):
            plan.fail_link(u, v)
        plans.append(plan)
    region = set(graph.bfs_order(rng.choice(nodes))[: len(nodes) // 3])
    partition = FaultPlan()
    for u, v in edges:
        if (u in region) != (v in region):
            partition.fail_link(u, v)
    partition.crash_node(sorted(region, key=repr)[-1])
    plans.append(partition)
    return plans


def _outcome(call, *args):
    """A call's value, or its error as ``(type, args)``."""
    try:
        return call(*args)
    except (NoRouteError, UnknownNodeError) as error:
        return type(error), error.args


class TestSurvivingMask:
    """The planner's surviving table is a mask over the static table, not
    a table over a copied graph.  Every answer — rows in insertion order,
    next hops, paths, distances, errors and multicast trees — must be the
    one a table over ``surviving_graph`` gives, and the rows must be the
    surviving graph's own BFS trees."""

    TOPOLOGIES = (
        "manhattan:6", "hypercube:5", "complete:16", "ccc:3", "tree:2x4",
        "projective:3",
    )

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_mask_answers_as_a_table_over_the_surviving_graph(self, name):
        graph = build_topology(name).graph
        for plan in _fault_plans(graph, name):
            net = Network(graph, delivery_mode="unicast")
            for node in plan.crashed_nodes:
                net.crash_node(node)
            for u, v in plan.failed_links:
                net.fail_link(u, v)
            masked = net.planner.routing_table()
            survivors = surviving_graph(graph, plan)
            reference = RoutingTable(survivors)
            ends = list(graph.nodes) + ["nowhere"]
            for source in ends:
                known = source in survivors
                if known:
                    tree = survivors.spanning_tree(source)
                    hops, distance = _reference_tables(survivors, source)
                    row = masked.distance_map(source)
                    assert dict(row) == distance
                    assert list(row) == list(tree) == list(distance)
                    assert list(masked.spanning_tree(source).items()) == \
                        list(tree.items())
                    assert net.planner.spanning_tree(source) == tree
                else:
                    assert _outcome(masked.distance_map, source) == \
                        _outcome(reference.distance_map, source)
                    if source in graph:
                        assert net.planner.spanning_tree(source) == {}
                for destination in ends:
                    for method in ("next_hop", "shortest_path", "distance"):
                        assert _outcome(
                            getattr(masked, method), source, destination
                        ) == _outcome(
                            getattr(reference, method), source, destination
                        ), (method, source, destination)
                    if known and destination in hops:
                        assert masked.next_hop(source, destination) == \
                            hops[destination]

    def test_the_partition_leaves_unreachable_pairs(self):
        graph = build_topology("manhattan:6").graph
        partition = _fault_plans(graph, "manhattan:6")[-1]
        table = RoutingTable(graph).masked(
            partition.crashed_nodes, partition.failed_links
        )
        survivors = surviving_graph(graph, partition)
        assert not survivors.is_connected()
        cut = [
            (a, b) for a in survivors for b in survivors
            if not table.has_route(a, b)
        ]
        assert cut and all(
            _outcome(table.distance, a, b)
            == (NoRouteError, NoRouteError(a, b).args)
            for a, b in cut
        )

    def test_a_mask_is_a_snapshot_and_leaves_the_static_table_alone(self):
        graph = build_topology("manhattan:6").graph
        static = RoutingTable(graph)
        before = dict(static.distance_map((0, 0)))
        plan = FaultPlan()
        plan.crash_node((0, 1))
        plan.fail_link((0, 0), (1, 0))
        masked = static.masked(plan.crashed_nodes, plan.failed_links)
        plan.clear()  # later revisions do not reach into the mask
        assert not masked.has_route((0, 0), (5, 5))
        assert _outcome(masked.distance, (0, 1), (0, 0)) == \
            (UnknownNodeError, UnknownNodeError((0, 1)).args)
        assert dict(static.distance_map((0, 0))) == before
        assert static.distance((0, 0), (0, 1)) == 1
