"""Cube-Connected Cycles (CCC) topology.

Section 3.3: "For various reasons fast permutation networks like the
Cube-Connected Cycles network are important interconnection patterns.  An
algorithm similar to that of the d-dimensional cube yields, appropriately
tuned, for an n-node CCC network caches of size ~sqrt(n/log n) and
m(n) ∈ O(sqrt(n log n))."

The CCC of order ``d`` replaces each corner ``w`` of the binary d-cube with a
cycle of ``d`` nodes ``(0, w) .. (d-1, w)``; node ``(p, w)`` is additionally
connected across the cube dimension ``p`` to ``(p, w XOR 2^p)``.  It has
``n = d * 2**d`` nodes, all of degree 3 (degree 2 for ``d < 3`` cycles).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology
from .hypercube import bit_strings

CCCNode = Tuple[int, str]


class CubeConnectedCyclesTopology(Topology):
    """The cube-connected cycles network of order ``d``."""

    family = "cube-connected-cycles"

    def __init__(self, dimensions: int) -> None:
        if dimensions < 2:
            raise TopologyError("CCC needs order at least 2")
        corners = bit_strings(dimensions)
        graph = Graph()
        for corner in corners:
            for position in range(dimensions):
                graph.add_node((position, corner))
        for corner in corners:
            for position in range(dimensions):
                # Cycle edge within the corner's cycle.
                graph.add_edge(
                    (position, corner), ((position + 1) % dimensions, corner)
                )
                # Cube edge across dimension `position`.
                flipped = (
                    corner[:position]
                    + ("1" if corner[position] == "0" else "0")
                    + corner[position + 1 :]
                )
                graph.add_edge((position, corner), (position, flipped))
        super().__init__(graph, name=f"ccc-{dimensions}")
        self._dimensions = dimensions

    @property
    def dimensions(self) -> int:
        """The cube order ``d`` (cycle length and address width)."""
        return self._dimensions

    def cycle_of(self, corner: str) -> List[CCCNode]:
        """All nodes of the cycle sitting at cube corner ``corner``."""
        if len(corner) != self._dimensions or any(ch not in "01" for ch in corner):
            raise ValueError(f"invalid corner address {corner!r}")
        return [(position, corner) for position in range(self._dimensions)]

    def corners_with_suffix(self, suffix: str) -> List[str]:
        """All cube corners whose address ends with ``suffix``."""
        free = self._dimensions - len(suffix)
        if free < 0:
            raise ValueError("suffix longer than the address")
        return [middle + suffix for middle in bit_strings(free)]

    def corners_with_prefix(self, prefix: str) -> List[str]:
        """All cube corners whose address starts with ``prefix``."""
        free = self._dimensions - len(prefix)
        if free < 0:
            raise ValueError("prefix longer than the address")
        return [prefix + middle for middle in bit_strings(free)]
