"""UUCP growth picks the same sites as the linear scan it replaced.

``reference_generate`` is the generator as it was before the weighted
sampler, written over plain dicts and sets: every pick rebuilds the weight
list ``1 + bias * degree`` and scans its running sum.  The generator must
grow the same tree, add the same shortcut edges and count the same
shortcuts, float for float.
"""

import random

import pytest

from repro.topologies import UUCPNetworkGenerator


def reference_generate(bias, extra_fraction, locality, n, seed):
    rng = random.Random(seed)
    adjacency = {0: set()}
    parent = {0: 0}

    def pick(degrees):
        nodes = list(degrees)
        weights = [1.0 + bias * degrees[node] for node in nodes]
        total = sum(weights)
        draw = rng.random() * total
        cumulative = 0.0
        for node, weight in zip(nodes, weights):
            cumulative += weight
            if draw <= cumulative:
                return node
        return nodes[-1]

    def link(u, v):
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    def path_to_root(node):
        path = [node]
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
        return path

    def tree_distance(u, v):
        depth_u = {node: depth for depth, node in enumerate(path_to_root(u))}
        for depth, node in enumerate(path_to_root(v)):
            if node in depth_u:
                return depth + depth_u[node]

    degrees = {0: 0}
    for new_site in range(1, n):
        chosen = pick(degrees)
        link(new_site, chosen)
        parent[new_site] = chosen
        degrees[chosen] += 1
        degrees[new_site] = 1

    target = int(round(extra_fraction * (n - 1)))
    added = attempts = 0
    degrees = {node: len(nbrs) for node, nbrs in adjacency.items()}
    while added < target and attempts < max(20 * target, 100):
        attempts += 1
        u, v = pick(degrees), pick(degrees)
        if u == v or v in adjacency[u]:
            continue
        if locality is not None and tree_distance(u, v) > locality:
            continue
        link(u, v)
        degrees[u] += 1
        degrees[v] += 1
        added += 1
    edges = {frozenset((u, v)) for u, nbrs in adjacency.items() for v in nbrs}
    return edges, parent, added


@pytest.mark.parametrize("locality", [None, 4])
@pytest.mark.parametrize("bias", [0.0, 0.37, 1.0, 6.0])
def test_growth_matches_the_linear_scan(bias, locality):
    generator = UUCPNetworkGenerator(
        preferential_bias=bias, extra_edge_fraction=0.9, locality=locality
    )
    for seed in (0, 5, 1984):
        topology = generator.generate(120, seed=seed)
        edges, parent, added = reference_generate(bias, 0.9, locality, 120, seed)
        assert {frozenset(edge) for edge in topology.graph.edges} == edges
        assert {
            node: (topology.path_to_root(node) + [node])[1] for node in parent
        } == parent
        assert len(topology.graph.edges) == 119 + added
