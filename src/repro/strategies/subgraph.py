"""The generic strategy for arbitrary connected networks (section 3, intro).

"In [4] a construction is given to divide every connected graph in O(sqrt(n))
disjoint connected subgraphs of ~sqrt(n) nodes each.  Number the nodes in
each subgraph 1 through sqrt(n). ...

Server's Algorithm.  A server at the node labelled i in one of the subgraphs
communicates its (port, address) to all nodes i in the remaining O(sqrt(n))
subgraphs.  It follows ... that this takes O(n) message passes.  Size
O(sqrt(n)) suffices for the cache of each node.

Client's Algorithm.  A client broadcasts for a service (along a spanning
tree) in the subgraph where it resides.  This takes at most sqrt(n) message
passes."

Because the client sweeps its *entire* block and the server posts at the node
carrying its own label in *every* block, the server's representative inside
the client's block is always hit.  The strategy trades heavy posting (O(n)
addressed nodes) for very cheap queries (O(sqrt(n))) — "under the practical
assumption that clients need to locate services usually far more frequently
than servers need to post ... this scheme is fairly optimal."
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional

from ..core.exceptions import StrategyError
from ..core.strategy import MatchMakingStrategy
from ..core.types import Port
from ..topologies.decomposition import GraphDecomposition


class SubgraphDecompositionStrategy(MatchMakingStrategy):
    """Label-based posting over an O(sqrt(n)) connected decomposition."""

    name = "subgraph-decomposition"

    def __init__(self, decomposition: GraphDecomposition) -> None:
        if decomposition.block_count == 0:
            raise StrategyError("the decomposition has no blocks")
        self._decomposition = decomposition

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        label = self._decomposition.label_of(node)
        return frozenset(self._decomposition.peers_with_label(label))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        block = self._decomposition.block_of(node)
        return frozenset(self._decomposition.members(block))
