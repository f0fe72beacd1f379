"""Property-based tests for the topology-specific strategies.

The invariants are the structural guarantees section 3 relies on:

* Manhattan rows/columns and hypercube prefix/suffix subcubes always
  intersect in exactly one node, and that node mixes the server's and the
  client's coordinates;
* mesh slices with disjoint fixed axes always intersect;
* tree paths always share the root;
* the hierarchical gateway strategy always produces a rendezvous inside the
  lowest shared level;
* the scoped hash strategy keeps local ports inside their neighbourhood.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Port
from repro.strategies import (
    HypercubeStrategy,
    ManhattanStrategy,
    MeshSliceStrategy,
    ScopedHashStrategy,
    TreePathStrategy,
)
from repro.topologies import (
    HierarchicalTopology,
    HypercubeTopology,
    ManhattanTopology,
    MeshTopology,
    TreeTopology,
)
from repro.topologies.tree import ROOT


class TestManhattanProperties:
    @given(
        rows=st.integers(min_value=2, max_value=7),
        cols=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_unique_rendezvous_mixes_coordinates(self, rows, cols, data):
        grid = ManhattanTopology(rows, cols)
        strategy = ManhattanStrategy(grid)
        server = data.draw(st.sampled_from(grid.nodes()))
        client = data.draw(st.sampled_from(grid.nodes()))
        meeting = strategy.rendezvous_set(server, client)
        assert meeting == frozenset({(server[0], client[1])})


class TestHypercubeProperties:
    @given(
        d=st.integers(min_value=2, max_value=7),
        split=st.integers(min_value=0, max_value=7),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_rendezvous_for_every_split(self, d, split, data):
        split = min(split, d)
        cube = HypercubeTopology(d)
        strategy = HypercubeStrategy(cube, server_prefix_bits=split)
        server = data.draw(st.sampled_from(cube.nodes()))
        client = data.draw(st.sampled_from(cube.nodes()))
        meeting = strategy.rendezvous_set(server, client)
        assert len(meeting) == 1
        node = next(iter(meeting))
        assert node[:split] == server[:split]
        assert node[split:] == client[split:]

    @given(d=st.integers(min_value=2, max_value=7))
    @settings(max_examples=10, deadline=None)
    def test_balanced_split_cost_never_below_2_sqrt_n(self, d):
        cube = HypercubeTopology(d)
        strategy = HypercubeStrategy(cube)
        server, client = cube.nodes()[0], cube.nodes()[-1]
        cost = len(strategy.post_set(server)) + len(strategy.query_set(client))
        assert cost >= 2 * (2 ** (d / 2)) - 1  # equality when d is even


class TestMeshProperties:
    @given(
        sides=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_disjoint_fixed_axes_always_intersect(self, sides, data):
        mesh = MeshTopology(sides)
        strategy = MeshSliceStrategy(mesh)
        server = data.draw(st.sampled_from(mesh.nodes()))
        client = data.draw(st.sampled_from(mesh.nodes()))
        meeting = strategy.rendezvous_set(server, client)
        assert meeting
        for node in meeting:
            assert node[0] == server[0]
            assert node[1] == client[1]


class TestTreeProperties:
    @given(
        arity=st.integers(min_value=2, max_value=3),
        levels=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_paths_always_share_an_ancestor(self, arity, levels, data):
        tree = TreeTopology.balanced(arity, levels)
        strategy = TreePathStrategy(tree)
        server = data.draw(st.sampled_from(tree.nodes()))
        client = data.draw(st.sampled_from(tree.nodes()))
        meeting = strategy.rendezvous_set(server, client)
        assert ROOT in meeting
        depth = 0
        while depth < min(len(server), len(client)) and server[depth] == client[depth]:
            depth += 1
        assert server[:depth] in meeting  # the lowest common ancestor
        # Every rendezvous node is an ancestor of both parties.
        for node in meeting:
            assert server[: len(node)] == node
            assert client[: len(node)] == node


class TestScopedHashProperties:
    @given(
        arity=st.integers(min_value=2, max_value=4),
        levels=st.integers(min_value=2, max_value=3),
        scope=st.integers(min_value=1, max_value=3),
        port_name=st.text(min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_rendezvous_stays_inside_the_scope_neighbourhood(
        self, arity, levels, scope, port_name, data
    ):
        scope = min(scope, levels)
        topology = HierarchicalTopology.uniform(arity, levels)
        port = Port(port_name)
        strategy = ScopedHashStrategy(topology, scopes={port: scope})
        node = data.draw(st.sampled_from(topology.nodes()))
        targets = strategy.post_set(node, port)
        neighbourhood = set(strategy.neighbourhood(node, port))
        assert targets <= neighbourhood
        # Any two nodes of the same neighbourhood agree on the rendezvous.
        other = data.draw(st.sampled_from(sorted(neighbourhood)))
        assert strategy.post_set(other, port) == targets
