"""Synthetic UUCPnet-like networks.

Section 3.6 characterises organically grown wide-area networks (UUCPnet,
August 1984: 1916 sites, 3848 edges) as

* approximately a tree "with a core in which we can imagine the root, and
  with some additional edges thrown in" — roughly as many extra edges as
  there are tree edges;
* a very skewed degree distribution: a few super-backbone sites of degree in
  the hundreds (ihnp4: 641), backbone sites of degree ~40-45, feeder sites of
  ~17, and a huge majority of terminal sites of degree 1;
* largely planar / geographically local extra edges.

The real site map is not available, so :class:`UUCPNetworkGenerator` grows a
synthetic network with the same qualitative structure: a preferential-
attachment tree (which produces the heavy-tailed degree hierarchy) plus a
configurable fraction of extra edges between nodes that are close in the
tree (the "geographically near" shortcut edges).  The paper's own measured
degree histogram is available as :data:`repro.analysis.uucp.PAPER_DEGREE_TABLE`
for comparison.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Optional

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology


class UUCPTopology(Topology):
    """A synthetic organically-grown network (tree plus shortcut edges)."""

    def __init__(self, graph: Graph, parent: Dict[int, int]) -> None:
        super().__init__(graph)
        self._parent = parent

    @property
    def root(self) -> int:
        """The core/root node of the underlying tree."""
        for node, parent in self._parent.items():
            if node == parent:
                return node
        raise TopologyError("tree has no root")  # pragma: no cover

    def path_to_root(self, node: int) -> List[int]:
        """Tree path from ``node`` to the root, inclusive."""
        if node not in self._parent:
            raise ValueError(f"{node!r} is not a node of this {len(self.graph)}-node UUCP network")
        path = [node]
        while self._parent[path[-1]] != path[-1]:
            path.append(self._parent[path[-1]])
        return path


class UUCPNetworkGenerator:
    """Generate synthetic UUCPnet-like topologies.

    Parameters
    ----------
    preferential_bias:
        Strength of preferential attachment when choosing a parent for each
        newly added site.  0 gives a uniform random recursive tree; larger
        values concentrate degree on early (core) nodes, producing the
        backbone/feeder/terminal hierarchy of the paper's table.
    extra_edge_fraction:
        Number of shortcut edges added, as a fraction of tree edges.  The
        paper observes UUCPnet has roughly one extra edge per tree edge
        (3848 edges vs 1915 tree edges), i.e. a fraction of about 1.0.
    locality:
        Maximum tree distance between endpoints of a shortcut edge, modelling
        "geographically near" extra edges.  ``None`` allows any pair.
    """

    def __init__(
        self,
        preferential_bias: float = 1.0,
        extra_edge_fraction: float = 1.0,
        locality: Optional[int] = 4,
    ) -> None:
        if preferential_bias < 0:
            raise ValueError("preferential_bias must be non-negative")
        if extra_edge_fraction < 0:
            raise ValueError("extra_edge_fraction must be non-negative")
        if locality is not None and locality < 2:
            raise ValueError("locality must be at least 2 (or None)")
        self._bias = preferential_bias
        self._extra_fraction = extra_edge_fraction
        self._locality = locality

    def generate(self, n: int, seed: int = 0) -> UUCPTopology:
        """Generate a network with ``n`` sites."""
        if n < 2:
            raise TopologyError("a UUCP-like network needs at least two sites")
        rng = random.Random(seed)
        graph = Graph(nodes=[0])
        parent: Dict[int, int] = {0: 0}
        sampler = _DegreeSampler(self._bias, [0])

        for new_site in range(1, n):
            chosen = sampler.pick(rng)
            graph.add_edge(new_site, chosen)
            parent[new_site] = chosen
            sampler.bump(chosen)
            sampler.bump(new_site)

        extra_target = int(round(self._extra_fraction * (n - 1)))
        self._add_shortcuts(graph, parent, extra_target, rng)
        return UUCPTopology(graph, parent)

    # -- internals -------------------------------------------------------------

    def _tree_distance(self, parent: Dict[int, int], u: int, v: int) -> int:
        """Distance between ``u`` and ``v`` in the attachment tree."""
        ancestors_u = {}
        node, depth = u, 0
        while True:
            ancestors_u[node] = depth
            if parent[node] == node:
                break
            node, depth = parent[node], depth + 1
        node, depth = v, 0
        while True:
            if node in ancestors_u:
                return depth + ancestors_u[node]
            if parent[node] == node:
                break
            node, depth = parent[node], depth + 1
        return depth + ancestors_u.get(node, 0)

    def _add_shortcuts(
        self,
        graph: Graph,
        parent: Dict[int, int],
        target: int,
        rng: random.Random,
    ) -> None:
        """Add up to ``target`` shortcut edges, preferring well-connected
        endpoints.

        Real UUCPnet shortcut links were set up by sites that already ran
        several connections (backbone/feeder sites), which is why the paper's
        table keeps a 44% share of degree-1 terminal sites despite having
        roughly one extra edge per tree edge.  Choosing both endpoints with
        degree-proportional bias reproduces that: leaves mostly stay leaves
        and hubs grow further.
        """
        added = 0
        attempts = 0
        max_attempts = max(20 * target, 100)
        sampler = _DegreeSampler(self._bias, [graph.degree(node) for node in graph])
        while added < target and attempts < max_attempts:
            attempts += 1
            u = sampler.pick(rng)
            v = sampler.pick(rng)
            if u == v or graph.has_edge(u, v):
                continue
            if (
                self._locality is not None
                and self._tree_distance(parent, u, v) > self._locality
            ):
                continue
            graph.add_edge(u, v)
            sampler.bump(u)
            sampler.bump(v)
            added += 1


class _DegreeSampler:
    """Picks sites ``0, 1, ...`` with weight ``1 + bias * degree``.

    A pick is one ``bisect_left`` into the running sums of the weights,
    which ``accumulate`` rebuilds only after a bump: the same left-to-right
    float additions, so the same choices, as a scan that stops at the first
    running sum ``>= pick``.  The total stays ``sum(weights)``, which
    Python 3.12 compensates for float error and ``accumulate`` does not.
    """

    def __init__(self, bias: float, degrees: List[int]) -> None:
        self._bias = bias
        self._degrees = degrees
        self._weights = [1.0 + bias * degree for degree in degrees]
        self._sums: List[float] = []
        self._total = 0.0

    def bump(self, site: int) -> None:
        """One more edge at ``site``; the site after the last one is new."""
        if site == len(self._degrees):
            self._degrees.append(0)
            self._weights.append(0.0)
        self._degrees[site] += 1
        self._weights[site] = 1.0 + self._bias * self._degrees[site]
        self._sums = []

    def pick(self, rng: random.Random) -> int:
        """A site drawn with one ``rng.random()``."""
        if not self._sums:
            self._sums = list(accumulate(self._weights))
            self._total = sum(self._weights)
        return min(bisect_left(self._sums, rng.random() * self._total), len(self._sums) - 1)
