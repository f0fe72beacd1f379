"""Complete networks and rings.

The complete network is the setting of the paper's lower-bound theory
(section 2.1, assumption 1): every message reaches its destination in one
hop, so message passes equal addressed nodes.  The ring is the paper's
worst-case example: "in a ring network, no match-making algorithm can do
significantly better than broadcasting (m(n) ∈ Ω(n))" (section 2.3.5).
"""

from __future__ import annotations

from ..core.exceptions import TopologyError
from ..network.graph import Graph, complete_graph
from .base import Topology


class CompleteTopology(Topology):
    """The complete graph on ``n`` nodes, labelled ``0..n-1``."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise TopologyError("a complete network needs at least one node")
        super().__init__(complete_graph(n))


class RingTopology(Topology):
    """A cycle on ``n`` nodes, labelled ``0..n-1``: node ``i`` neighbours
    ``i ± 1`` modulo ``n``."""

    def __init__(self, n: int) -> None:
        if n < 3:
            raise TopologyError("a ring needs at least three nodes")
        graph = Graph.from_neighbours(
            {i: {(i - 1) % n, (i + 1) % n} for i in range(n)}
        )
        super().__init__(graph)
