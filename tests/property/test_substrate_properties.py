"""Property-based tests on the substrates: graphs, routing, caches,
decomposition and topology generators."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Address, Port, PostRecord, freshest, freshness_key
from repro.network.cache import PostingStore
from repro.network.graph import Graph, complete_graph
from repro.network.routing import RoutingTable
from repro.topologies import (
    HypercubeTopology,
    ManhattanTopology,
    MeshTopology,
    TreeTopology,
    UUCPNetworkGenerator,
    decompose,
)


@st.composite
def random_connected_graph(draw):
    """A random connected graph on 2..25 nodes (random tree plus extras)."""
    n = draw(st.integers(min_value=2, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = Graph(nodes=range(n))
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestGraphProperties:
    @given(graph=random_connected_graph())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_is_twice_edges(self, graph):
        assert sum(graph.degree(v) for v in graph.nodes) == 2 * graph.edge_count

    @given(graph=random_connected_graph())
    @settings(max_examples=40, deadline=None)
    def test_spanning_tree_has_n_minus_1_edges(self, graph):
        parent = graph.spanning_tree(graph.nodes[0])
        tree_edges = sum(1 for child, par in parent.items() if child != par)
        assert tree_edges == graph.node_count - 1

    @given(graph=random_connected_graph())
    @settings(max_examples=40, deadline=None)
    def test_bfs_reaches_every_node(self, graph):
        assert set(graph.bfs_order(graph.nodes[0])) == set(graph.nodes)


class TestRoutingProperties:
    @given(graph=random_connected_graph())
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, graph):
        table = RoutingTable(graph)
        nodes = graph.nodes
        rng = random.Random(0)
        for _ in range(10):
            a, b, c = rng.choice(nodes), rng.choice(nodes), rng.choice(nodes)
            assert table.distance(a, c) <= table.distance(a, b) + table.distance(b, c)

    @given(graph=random_connected_graph())
    @settings(max_examples=30, deadline=None)
    def test_shortest_path_length_matches_distance(self, graph):
        table = RoutingTable(graph)
        nodes = graph.nodes
        rng = random.Random(1)
        for _ in range(10):
            a, b = rng.choice(nodes), rng.choice(nodes)
            path = table.shortest_path(a, b)
            assert len(path) - 1 == table.distance(a, b)
            assert path[0] == a and path[-1] == b

    @given(graph=random_connected_graph())
    @settings(max_examples=30, deadline=None)
    def test_next_hop_is_neighbour(self, graph):
        table = RoutingTable(graph)
        nodes = graph.nodes
        rng = random.Random(2)
        for _ in range(10):
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a == b:
                continue
            hop = table.next_hop(a, b)
            assert graph.has_edge(a, hop)


class TestDecompositionProperties:
    @given(graph=random_connected_graph())
    @settings(max_examples=40, deadline=None)
    def test_decomposition_is_a_partition_of_connected_blocks(self, graph):
        decomposition = decompose(graph)
        decomposition.verify()
        total = sum(len(block) for block in decomposition.blocks)
        assert total == graph.node_count

    @given(graph=random_connected_graph(), target=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_block_count_bounded(self, graph, target):
        decomposition = decompose(graph, target_size=target)
        assert decomposition.block_count <= graph.node_count // target + 1


class TestCacheProperties:
    @given(
        postings=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lookup_returns_freshest_posting(self, postings):
        store = PostingStore(["n"])
        best = {}
        for name, node, ts in postings:
            record = PostRecord(Port(name), Address(node), timestamp=ts, server_id="s")
            store.post(record, ["n"])
            current = best.get(name)
            if current is None or record.is_newer_than(current):
                best[name] = record
        for name, record in best.items():
            assert store.lookup("n", Port(name)) == record
            assert store.holders(Port(name)) == {"n": {"s": record}}

    # Tie-heavy on purpose: three timestamps and five addresses over up to
    # twelve records, so equal timestamps, equal reprs (the same address
    # drawn twice) and the full-tie "first wins" rule all occur; 1 and 1.0
    # are equal addresses that repr differently.
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from([1, 1.0, "1", 2, (0, 1)]),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_freshest_is_max_by_identity(self, entries):
        records = [
            PostRecord(Port("p"), Address(node), timestamp=ts, server_id=str(i))
            for i, (ts, node) in enumerate(entries)
        ]
        expected = max(
            records, key=lambda r: (r.timestamp, repr(r.address)), default=None
        )
        assert freshest(records) is expected
        assert freshest(iter(records)) is expected
        by_server = {record.server_id: record for record in records}
        assert freshest(by_server.values()) is expected
        ranked = sorted(
            records, key=lambda r: (r.timestamp, repr(r.address)), reverse=True
        )
        by_key = sorted(records, key=freshness_key, reverse=True)
        assert [id(r) for r in by_key] == [id(r) for r in ranked]

    def test_freshest_of_nothing_and_of_one(self):
        assert freshest(()) is None
        assert freshest([]) is None
        assert freshest({}.values()) is None
        lone = PostRecord(Port("p"), Address(1))
        assert freshest([lone]) is lone


class TestTopologyGeneratorProperties:
    @given(d=st.integers(min_value=1, max_value=7))
    @settings(max_examples=10, deadline=None)
    def test_hypercube_counts(self, d):
        cube = HypercubeTopology(d)
        assert cube.node_count == 2**d
        assert cube.edge_count == d * 2 ** (d - 1)

    @given(rows=st.integers(min_value=1, max_value=8), cols=st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_grid_edge_count(self, rows, cols):
        grid = ManhattanTopology(rows, cols)
        expected = rows * (cols - 1) + cols * (rows - 1)
        assert grid.edge_count == expected

    @given(
        sides=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3)
    )
    @settings(max_examples=20, deadline=None)
    def test_mesh_node_count(self, sides):
        mesh = MeshTopology(sides)
        expected = 1
        for side in sides:
            expected *= side
        assert mesh.node_count == expected

    @given(arity=st.integers(min_value=2, max_value=4), levels=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_balanced_tree_node_count(self, arity, levels):
        tree = TreeTopology.balanced(arity, levels)
        expected = sum(arity**k for k in range(levels + 1))
        assert tree.node_count == expected

    @given(n=st.integers(min_value=2, max_value=120), seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=20, deadline=None)
    def test_uucp_connected_with_exact_size(self, n, seed):
        topo = UUCPNetworkGenerator().generate(n, seed=seed)
        assert topo.node_count == n
        assert topo.graph.is_connected()
