"""Hierarchical gateway match-making (section 3.5).

"A server posts its (port, address) by selecting ~sqrt(n_i) gateways,
connecting level i-1 networks in a level i network, at each level i of the
hierarchy, on a path from its host node to the highest level network. ...
Similarly, at each level i on a path from its host node to the highest level
network, a client's locate in a network of that level can be done in
O(sqrt(n_i)) message passes.  This gives an average message pass complexity
m(n) ∈ O(Σ_i sqrt(n_i)); ... the minimum value m(n) ∈ O(log n) is reached
for k = ½·log n levels."

Implementation: inside every level-``i`` network (whose participants are the
``n_i`` gateways of its level-(i-1) subnetworks, or the basic nodes at level
1) we run the truly distributed checkerboard strategy of Example 4, keyed by
the *entry point* through which a node participates in that network.  A
server posts the checkerboard post-set of its entry point at every level on
the way up; a client queries the checkerboard query-set of its entry point at
every level.  At the lowest level whose network contains both parties their
checkerboard sets intersect, so the match is guaranteed — and usually made
far below the root, which is what keeps caches near the top small when
traffic is local.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from ..core.types import Port
from ..topologies.hierarchical import HierarchicalTopology, HierNode
from .base import TopologyStrategy
from .truly_distributed import CheckerboardStrategy


class HierarchicalGatewayStrategy(TopologyStrategy):
    """Level-by-level checkerboard match-making on a hierarchical network."""

    name = "hierarchical-gateway"
    expected_topology = HierarchicalTopology

    def __init__(self, topology: HierarchicalTopology) -> None:
        super().__init__(topology)
        # One checkerboard sub-strategy per distinct (level, network) pair,
        # built lazily and cached: the participants of a level network are
        # few (n_i), so these are small.
        self._subnetworks: Dict[Tuple[int, Tuple[int, ...]], CheckerboardStrategy] = {}

    def _checkerboard_for(self, node: HierNode, level: int) -> CheckerboardStrategy:
        prefix = self.topology.cluster_prefix(node, level)
        key = (level, prefix)
        if key not in self._subnetworks:
            members = self.topology.level_members(node, level)
            self._subnetworks[key] = CheckerboardStrategy(members, order=members)
        return self._subnetworks[key]

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        targets = set()
        for level in range(1, self.topology.levels + 1):
            entry = self.topology.entry_point(node, level)
            board = self._checkerboard_for(node, level)
            targets.update(board.post_set(entry))
        return frozenset(targets)

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        targets = set()
        for level in range(1, self.topology.levels + 1):
            entry = self.topology.entry_point(node, level)
            board = self._checkerboard_for(node, level)
            targets.update(board.query_set(entry))
        return frozenset(targets)
