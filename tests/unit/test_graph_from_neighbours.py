"""The bulk graph path: ``Graph.from_neighbours`` and the families built on it.

Every rule-based topology builds its graph from whole neighbour sets.  The
oracle here rebuilds each family edge by edge, with the loops the families
used before the bulk path existed, and asks for the same nodes in the same
order and the same neighbour set at every node.
"""

import itertools

import pytest

from repro.network.graph import Graph, complete_graph
from repro.topologies import (
    CompleteTopology,
    CubeConnectedCyclesTopology,
    HierarchicalTopology,
    HypercubeTopology,
    ManhattanTopology,
    MeshTopology,
    ProjectivePlaneTopology,
    RingTopology,
    TreeTopology,
)
from repro.topologies.hypercube import bit_strings
from repro.topologies.projective_plane import incidence, projective_points


class TestFromNeighbours:
    def test_nodes_keep_the_mapping_order(self):
        graph = Graph.from_neighbours({2: {0}, 0: {2, 1}, 1: {0}})
        assert graph.nodes == [2, 0, 1]
        assert len(graph.edges) == 2
        assert graph.neighbours(0) == {1, 2}

    def test_a_self_loop_is_dropped(self):
        graph = Graph.from_neighbours({0: {0, 1}, 1: {0, 1}})
        assert graph.neighbours(0) == {1}
        assert graph.neighbours(1) == {0}
        assert len(graph.edges) == 1

    def test_an_asymmetric_pair_is_named(self):
        with pytest.raises(ValueError, match=r"asymmetric pair: 0 lists 2"):
            Graph.from_neighbours({0: {1, 2}, 1: {0}, 2: set()})

    def test_a_neighbour_that_is_no_node_is_asymmetric(self):
        with pytest.raises(ValueError, match=r"'a' lists 'b'"):
            Graph.from_neighbours({"a": {"b"}})

    def test_complete_graph_is_everyone_but_yourself(self):
        graph = complete_graph(5)
        assert graph.nodes == [0, 1, 2, 3, 4]
        assert all(graph.neighbours(u) == set(range(5)) - {u} for u in range(5))
        assert complete_graph(0).node_count == 0


# -- the edge-by-edge reference ---------------------------------------------


def ring_reference(n):
    graph = Graph(nodes=range(n))
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def complete_reference(n):
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


def manhattan_reference(rows, cols, wrap):
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
            elif wrap and cols > 2:
                graph.add_edge((r, c), (r, 0))
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            elif wrap and rows > 2:
                graph.add_edge((r, c), (0, c))
    return graph


def mesh_reference(sides, wrap):
    graph = Graph()
    for coord in itertools.product(*(range(s) for s in sides)):
        graph.add_node(coord)
    for coord in itertools.product(*(range(s) for s in sides)):
        for axis, side in enumerate(sides):
            if coord[axis] + 1 < side:
                neighbour = list(coord)
                neighbour[axis] += 1
                graph.add_edge(coord, tuple(neighbour))
            elif wrap and side > 2:
                neighbour = list(coord)
                neighbour[axis] = 0
                graph.add_edge(coord, tuple(neighbour))
    return graph


def flip(address, position):
    return (
        address[:position]
        + ("1" if address[position] == "0" else "0")
        + address[position + 1:]
    )


def hypercube_reference(dimensions):
    nodes = bit_strings(dimensions)
    graph = Graph(nodes=nodes)
    for node in nodes:
        for bit in range(dimensions):
            graph.add_edge(node, flip(node, bit))
    return graph


def ccc_reference(dimensions):
    corners = bit_strings(dimensions)
    graph = Graph()
    for corner in corners:
        for position in range(dimensions):
            graph.add_node((position, corner))
    for corner in corners:
        for position in range(dimensions):
            graph.add_edge(
                (position, corner), ((position + 1) % dimensions, corner)
            )
            graph.add_edge((position, corner), (position, flip(corner, position)))
    return graph


def tree_reference(branching):
    graph = Graph(nodes=[()])
    frontier = [()]
    for fanout in branching:
        next_frontier = []
        for parent in frontier:
            for child_index in range(fanout):
                child = parent + (child_index,)
                graph.add_edge(parent, child)
                next_frontier.append(child)
        frontier = next_frontier
    return graph


def hierarchical_reference(branching):
    levels = len(branching)
    reversed_branching = branching[::-1]

    def gateway(prefix):
        return prefix + (0,) * (levels - len(prefix))

    def fully_connect(graph, members):
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(u, v)

    graph = Graph(nodes=[
        tuple(coordinate)
        for coordinate in itertools.product(*(range(b) for b in reversed_branching))
    ])
    for prefix in itertools.product(*(range(b) for b in reversed_branching[:-1])):
        fully_connect(graph, [prefix + (i,) for i in range(branching[0])])
    for level in range(2, levels + 1):
        prefix_length = levels - level
        for prefix in itertools.product(
            *(range(b) for b in reversed_branching[:prefix_length])
        ):
            fully_connect(graph, [
                gateway(prefix + (i,))
                for i in range(reversed_branching[prefix_length])
            ])
    return graph


def projective_reference(order):
    points = projective_points(order)
    graph = Graph(nodes=points)
    for line in points:
        members = [point for point in points if incidence(point, line, order)]
        for index, point in enumerate(members):
            graph.add_edge(point, members[(index + 1) % len(members)])
    return graph


FAMILIES = [
    *[(CompleteTopology, complete_reference, (n,)) for n in (1, 2, 7, 36)],
    *[(RingTopology, ring_reference, (n,)) for n in (3, 4, 10, 17)],
    *[(ManhattanTopology, manhattan_reference, (rows, cols, wrap))
      for rows, cols in ((1, 2), (1, 5), (2, 2), (2, 3), (3, 3), (4, 7), (6, 6))
      for wrap in (False, True)],
    *[(MeshTopology, mesh_reference, (sides, wrap))
      for sides in ((5,), (2, 3, 4), (3, 3, 3), (1, 2, 3, 2)) for wrap in (False, True)],
    *[(HypercubeTopology, hypercube_reference, (d,)) for d in (1, 2, 3, 5, 7)],
    *[(CubeConnectedCyclesTopology, ccc_reference, (d,)) for d in (2, 3, 4, 5)],
    *[(TreeTopology, tree_reference, (branching,))
      for branching in ((1,), (3,), (2, 2, 2), (4, 1, 3))],
    *[(HierarchicalTopology, hierarchical_reference, (branching,))
      for branching in ((2,), (3, 2), (2, 2, 2), (4, 3))],
    *[(ProjectivePlaneTopology, projective_reference, (order,)) for order in (2, 3, 5)],
]


@pytest.mark.parametrize(
    "family, reference, args", FAMILIES,
    ids=[f"{family.__name__}{args}" for family, _, args in FAMILIES],
)
def test_every_family_matches_its_edge_by_edge_reference(family, reference, args):
    graph, expected = family(*args).graph, reference(*args)
    assert graph.nodes == expected.nodes
    for node in expected:
        assert graph.neighbours(node) == expected.neighbours(node), node
