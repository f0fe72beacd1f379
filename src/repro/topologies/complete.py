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

    family = "complete"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise TopologyError("a complete network needs at least one node")
        super().__init__(complete_graph(n), name=f"complete-{n}")


class RingTopology(Topology):
    """A cycle on ``n`` nodes, labelled ``0..n-1``: node ``i`` neighbours
    ``i ± 1`` modulo ``n``."""

    family = "ring"

    def __init__(self, n: int) -> None:
        if n < 3:
            raise TopologyError("a ring needs at least three nodes")
        graph = Graph.from_neighbours(
            {i: {(i - 1) % n, (i + 1) % n} for i in range(n)}
        )
        super().__init__(graph, name=f"ring-{n}")


class StarTopology(Topology):
    """A star: one hub connected to ``n - 1`` leaves.

    The natural host topology of the centralized name server (Example 3):
    every posting and every query is one hop from a leaf to the hub.
    """

    family = "star"

    def __init__(self, n: int, hub: int = 0) -> None:
        if n < 2:
            raise TopologyError("a star needs at least two nodes")
        if not 0 <= hub < n:
            raise TopologyError(f"hub {hub} out of range for {n} nodes")
        leaves = set(range(n)) - {hub}
        graph = Graph.from_neighbours(
            {i: leaves if i == hub else {hub} for i in range(n)}
        )
        super().__init__(graph, name=f"star-{n}")
        self._hub = hub

    @property
    def hub(self) -> int:
        """The hub node."""
        return self._hub
