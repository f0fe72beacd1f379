"""Tree topologies with level-dependent degree profiles.

Section 3.6 of the paper models organically grown wide-area networks
(UUCPnet-like) as trees whose node degree shrinks away from the core: with
``l`` levels, root at level ``l`` and leaves at level 0, the branching factors
satisfy the "factorial relation" ``d(l)·d(l-1)···d(1) = n``.  Two profiles are
analysed:

* ``d(i) = c · i^(1+eps)`` ("factorial" profile), giving depth
  ``l ≈ log n / ((1+eps) · loglog n)``;
* ``d(i) = c · 2^(eps·i)`` (exponential profile), giving depth
  ``l ≈ sqrt((2/eps) · log n)``.

The match-making strategy on such trees is "all services advertise at the
path leading to the root of the tree, and similarly the clients request
services on the path to the root", giving ``m(n) ∈ O(l)`` with caches growing
towards the root.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology

TreeNode = Tuple[int, ...]

#: The root of every tree topology: the empty path.
ROOT: TreeNode = ()


class TreeTopology(Topology):
    """A rooted tree defined by per-level branching factors.

    ``branching[0]`` is the degree of the root (number of level ``l-1``
    children), ``branching[1]`` the number of children of each level ``l-1``
    node, and so on; nodes at depth ``len(branching)`` are leaves.  Node
    identifiers are paths from the root (the root is the empty tuple).
    """

    def __init__(self, branching: Sequence[int]) -> None:
        branching = tuple(int(b) for b in branching)
        if any(b < 1 for b in branching):
            raise TopologyError("branching factors must be at least 1")
        # A node neighbours its parent and its children, in BFS order.
        neighbours: Dict[TreeNode, Set[TreeNode]] = {ROOT: set()}
        parents: Dict[TreeNode, TreeNode] = {ROOT: ROOT}
        frontier: List[TreeNode] = [ROOT]
        for fanout in branching:
            next_frontier: List[TreeNode] = []
            for parent in frontier:
                children = [parent + (child_index,) for child_index in range(fanout)]
                neighbours[parent].update(children)
                for child in children:
                    neighbours[child] = {parent}
                    parents[child] = parent
                next_frontier += children
            frontier = next_frontier
        graph = Graph.from_neighbours(neighbours)
        super().__init__(graph)
        self._branching = branching
        self._parents = parents

    # -- structure ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """The number of levels below the root (the paper's ``l``)."""
        return len(self._branching)

    def parent(self, node: TreeNode) -> TreeNode:
        """The parent of ``node`` (the root is its own parent)."""
        try:
            return self._parents[node]
        except KeyError:
            raise ValueError(
                f"{node!r} is not a node of the tree with branching {self._branching}"
            ) from None

    def depth_of(self, node: TreeNode) -> int:
        """Distance of ``node`` from the root: the length of its path."""
        self.parent(node)  # validate
        return len(node)

    def path_to_root(self, node: TreeNode) -> List[TreeNode]:
        """The nodes on the path from ``node`` up to and including the
        root."""
        self.depth_of(node)  # validate
        path = [node]
        while path[-1] != ROOT:
            path.append(self.parent(path[-1]))
        return path

    # -- paper degree profiles ------------------------------------------------

    @classmethod
    def factorial_profile(cls, levels: int, eps: float = 0.0) -> "TreeTopology":
        """Tree with ``d(i) = max(2, round(i^(1+eps)))`` (the paper's ``c = 1``).

        Level ``i`` counts down from the root (``i = levels`` at the root) as
        in the paper, so the root has the largest fan-out.
        """
        if levels < 1:
            raise TopologyError("levels must be at least 1")
        branching = [
            max(2, int(round(i ** (1.0 + eps)))) for i in range(levels, 0, -1)
        ]
        return cls(branching)

    @classmethod
    def exponential_profile(cls, levels: int, eps: float = 1.0) -> "TreeTopology":
        """Tree with ``d(i) = max(2, round(2^(eps*i)))`` (``c = 1``)."""
        if levels < 1:
            raise TopologyError("levels must be at least 1")
        branching = [
            max(2, int(round(2.0 ** (eps * i)))) for i in range(levels, 0, -1)
        ]
        return cls(branching)

    @classmethod
    def balanced(cls, arity: int, levels: int) -> "TreeTopology":
        """A uniform ``arity``-ary tree of the given depth."""
        if levels < 1:
            raise TopologyError("levels must be at least 1")
        return cls([arity] * levels)


def predicted_depth_factorial(n: int, eps: float = 0.0) -> float:
    """The paper's depth prediction for the factorial profile.

    ``l ≈ log n / ((1 + eps) · loglog n)`` (section 3.6, via Stirling).
    Requires ``n`` large enough that ``loglog n > 0``.
    """
    if n < 5:
        raise ValueError("n too small for the asymptotic formula")
    log_n = math.log2(n)
    loglog_n = math.log2(log_n)
    if loglog_n <= 0:
        raise ValueError("n too small for the asymptotic formula")
    return log_n / ((1.0 + eps) * loglog_n)


def predicted_depth_exponential(n: int, c: float = 1.0, eps: float = 1.0) -> float:
    """The paper's depth prediction for the exponential profile.

    ``l = sqrt(log²c + (2/eps)·log n) − log c`` up to rounding
    (section 3.6); with ``c = 1`` this is ``sqrt((2/eps)·log n)``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if c <= 0 or eps <= 0:
        raise ValueError("c and eps must be positive")
    log_c = math.log2(c)
    return math.sqrt(log_c * log_c + (2.0 / eps) * math.log2(n)) - log_c
