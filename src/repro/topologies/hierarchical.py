"""Hierarchical (gateway) network topologies.

Section 3.5: "Assume that a level i network connects n_i level i-1 networks
through n_i gateways, for each 1 < i ≤ k (or basic nodes, at the lowest level
0 for i = 1)."  Locates proceed level by level: first locally, then in the
next level up, and so on until the top level is reached, giving
``m(n) ∈ O(Σ_i sqrt(n_i))`` and, for ``n_i = a`` and ``k = ½ log n`` levels,
``m(n) ∈ O(log n)``.

Model
-----
* A *level-1 cluster* is a set of ``branching[0]`` basic nodes, fully
  connected, whose first member acts as the cluster's gateway.
* A *level-i network* (i ≥ 2) connects ``branching[i-1]`` level-(i-1)
  networks by fully connecting their gateways.
* Node identifiers are tuples: the path of cluster indices from the top of
  the hierarchy down to the node, e.g. ``(2, 0, 3)`` is basic node 3 of
  cluster 0 of top-level branch 2.

The gateway of a subtree is its lexicographically first leaf (all-zero
suffix), so gateways are ordinary nodes that do double duty — there are no
extra gateway processors, matching the paper's picture of gateway *hosts*.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology

HierNode = Tuple[int, ...]


class HierarchicalTopology(Topology):
    """A ``k``-level hierarchy with the given branching factors.

    Parameters
    ----------
    branching:
        ``branching[0]`` is the number of basic nodes per level-1 cluster;
        ``branching[i]`` (i ≥ 1) is the number of level-i networks joined by
        each level-(i+1) network.  The total number of basic nodes is the
        product of all branching factors.
    """

    def __init__(self, branching: Sequence[int]) -> None:
        branching = tuple(int(b) for b in branching)
        if not branching or any(b < 2 for b in branching):
            raise TopologyError("every branching factor must be at least 2")
        self._branching = branching
        self._levels = len(branching)

        # Leaf node ids: one tuple per basic node, top-level index first.
        reversed_branching = branching[::-1]
        leaves = [
            tuple(coordinate)
            for coordinate in itertools.product(*(range(b) for b in reversed_branching))
        ]
        neighbours: Dict[HierNode, Set[HierNode]] = {leaf: set() for leaf in leaves}

        # Level-1 clusters: fully connect leaves sharing all but the last index.
        for prefix in itertools.product(*(range(b) for b in reversed_branching[:-1])):
            members = [prefix + (i,) for i in range(branching[0])]
            _fully_connect(neighbours, members)

        # Level-i networks (i >= 2): fully connect the gateways of sibling
        # level-(i-1) subtrees.
        for level in range(2, self._levels + 1):
            prefix_length = self._levels - level
            for prefix in itertools.product(
                *(range(b) for b in reversed_branching[:prefix_length])
            ):
                gateways = [
                    self._gateway_for_prefix(prefix + (i,))
                    for i in range(reversed_branching[prefix_length])
                ]
                _fully_connect(neighbours, gateways)

        super().__init__(Graph.from_neighbours(neighbours))

    # -- structure queries -----------------------------------------------------

    @property
    def levels(self) -> int:
        """Number of hierarchy levels ``k``."""
        return self._levels

    def _gateway_for_prefix(self, prefix: Tuple[int, ...]) -> HierNode:
        """The gateway (all-zero completion) of the subtree named by
        ``prefix``."""
        return prefix + (0,) * (self._levels - len(prefix))

    def cluster_prefix(self, node: HierNode, level: int) -> Tuple[int, ...]:
        """The identifier (prefix) of the level-``level`` network containing
        ``node``.

        ``level = 1`` names the node's basic cluster, ``level = levels`` names
        the whole network (empty prefix).
        """
        self._validate_node(node)
        if not 1 <= level <= self._levels:
            raise ValueError(f"level must be in 1..{self._levels}")
        return node[: self._levels - level]

    def level_members(self, node: HierNode, level: int) -> List[HierNode]:
        """The *participants* of the level-``level`` network containing
        ``node``.

        For ``level = 1`` these are the basic nodes of the node's cluster; for
        higher levels they are the gateways of the level-(level-1) subtrees
        joined at that level.
        """
        prefix = self.cluster_prefix(node, level)
        branch = self._branching[::-1][len(prefix)]
        if level == 1:
            return [prefix + (i,) for i in range(branch)]
        return [self._gateway_for_prefix(prefix + (i,)) for i in range(branch)]

    def entry_point(self, node: HierNode, level: int) -> HierNode:
        """The member of the level-``level`` network through which ``node``
        participates.

        At level 1 this is the node itself; above that it is the gateway of
        the level-(level-1) subtree the node belongs to.
        """
        self._validate_node(node)
        if not 1 <= level <= self._levels:
            raise ValueError(f"level must be in 1..{self._levels}")
        if level == 1:
            return node
        prefix = node[: self._levels - level + 1]
        return self._gateway_for_prefix(prefix)

    def subtree_leaves(self, prefix: Tuple[int, ...]) -> List[HierNode]:
        """All basic nodes below the subtree named by ``prefix``."""
        remaining = self._branching[::-1][len(prefix) :]
        return [
            prefix + tuple(suffix)
            for suffix in itertools.product(*(range(b) for b in remaining))
        ]

    def _validate_node(self, node: HierNode) -> None:
        if node not in self.graph:
            raise ValueError(
                f"{node!r} is not a node of the hierarchy with branching {self._branching}"
            )

    @classmethod
    def uniform(cls, arity: int, levels: int) -> "HierarchicalTopology":
        """A hierarchy with the same branching factor ``a`` at every level
        (``n = a ** levels``)."""
        if levels < 1:
            raise TopologyError("levels must be at least 1")
        return cls([arity] * levels)


def _fully_connect(
    neighbours: Dict[HierNode, Set[HierNode]], members: List[HierNode]
) -> None:
    """Make ``members`` a clique (``Graph.from_neighbours`` drops self-loops)."""
    clique = set(members)
    for member in members:
        neighbours[member] |= clique
