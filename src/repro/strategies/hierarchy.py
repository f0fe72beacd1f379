"""Hierarchical match-making: Example 5 and the tree path-to-root strategy
of section 3.6.

Example 5 ("Hierarchical, distributed name server") organises the nodes in a
hierarchy — in the paper's 9-node instance ``1,2,3 < 7; 4,5,6 < 8; 7,8 < 9``
— and resolves every pair at nodes higher in the hierarchy: both parties
address the chain of their hierarchical superiors, and the match is made at
their lowest common superior (or any node above it).

Section 3.6 applies the same idea to organically grown trees: "all services
advertise at the path leading to the root of the tree, and similarly the
clients request services on the path to the root", giving ``m(n) ∈ O(l)``
message passes for an ``l``-level tree at the price of caches that grow
towards the root.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional

from ..core.exceptions import StrategyError
from ..core.strategy import MatchMakingStrategy
from ..core.types import Port
from ..topologies.tree import TreeTopology
from ..topologies.uucp import UUCPTopology
from .base import TopologyStrategy


class SupervisorHierarchyStrategy(MatchMakingStrategy):
    """Example 5: every node addresses its chain of hierarchical superiors.

    The hierarchy is given as a ``node -> supervisor`` mapping; top nodes
    supervise themselves.  ``P(i) = Q(i)`` = the node's supervisor chain
    (excluding the node itself unless it is a top node), so two nodes always
    meet at their lowest common supervisor and everything above it.
    """

    name = "supervisor-hierarchy"

    def __init__(self, supervisor: Mapping[Hashable, Hashable]) -> None:
        if not supervisor:
            raise StrategyError("the supervisor map must not be empty")
        self._supervisor: Dict[Hashable, Hashable] = dict(supervisor)
        for node, boss in self._supervisor.items():
            if boss not in self._supervisor:
                raise StrategyError(
                    f"supervisor {boss!r} of {node!r} is not itself in the map"
                )
        # Validate there are no cycles other than self-loops at the top.
        for node in self._supervisor:
            self._chain(node)

    def _chain(self, node: Hashable) -> List[Hashable]:
        """The supervisor chain from ``node``'s supervisor up to the top."""
        chain: List[Hashable] = []
        seen = {node}
        current = node
        while self._supervisor[current] != current:
            current = self._supervisor[current]
            if current in seen:
                raise StrategyError(f"supervisor cycle detected at {current!r}")
            seen.add(current)
            chain.append(current)
        if not chain:
            chain.append(current)  # A top node is its own rendezvous point.
        return chain

    def universe(self) -> FrozenSet[Hashable]:
        return frozenset(self._supervisor)

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require(node)
        return frozenset(self._chain(node))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require(node)
        return frozenset(self._chain(node))

    def lowest_common_supervisor(
        self, server: Hashable, client: Hashable
    ) -> Hashable:
        """The lowest node of the hierarchy that supervises both arguments.

        This is the designated rendezvous node the paper's Example 5 matrix
        prints (e.g. node 7 for servers and clients in {1,2,3}, node 9
        otherwise).
        """
        server_chain = self._chain(server)
        client_chain = set(self._chain(client))
        for candidate in server_chain:
            if candidate in client_chain:
                return candidate
        raise StrategyError(
            f"nodes {server!r} and {client!r} share no supervisor"
        )  # pragma: no cover - impossible in a single-rooted hierarchy

    def _require(self, node: Hashable) -> None:
        if node not in self._supervisor:
            raise StrategyError(f"{self.name}: unknown node {node!r}")

    @classmethod
    def example5(cls) -> "SupervisorHierarchyStrategy":
        """The exact 9-node hierarchy of the paper's Example 5:
        ``1,2,3 < 7; 4,5,6 < 8; 7,8 < 9``."""
        supervisor = {1: 7, 2: 7, 3: 7, 4: 8, 5: 8, 6: 8, 7: 9, 8: 9, 9: 9}
        return cls(supervisor)


class TreePathStrategy(TopologyStrategy):
    """Section 3.6: post and query along the path to the root of a tree.

    Works for both :class:`~repro.topologies.tree.TreeTopology` (designed
    trees with degree profiles) and :class:`~repro.topologies.uucp.UUCPTopology`
    (organically grown tree-plus-shortcuts networks, using the underlying
    attachment tree).  ``P(i) = Q(i)`` = the tree path from ``i`` to the root
    inclusive, so every pair meets at its lowest common ancestor and above;
    ``m(i, j) ≤ 2(l + 1)`` for an ``l``-level tree.
    """

    name = "tree-path-to-root"

    def __init__(self, topology) -> None:
        if not isinstance(topology, (TreeTopology, UUCPTopology)):
            raise StrategyError(
                "TreePathStrategy requires a TreeTopology or UUCPTopology, "
                f"got {type(topology).__name__}"
            )
        super().__init__(topology)

    def path_to_root(self, node: Hashable) -> List[Hashable]:
        """The tree path from ``node`` to the root, inclusive."""
        self._require_member(node)
        return self.topology.path_to_root(node)

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        return frozenset(self.path_to_root(node))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        return frozenset(self.path_to_root(node))
