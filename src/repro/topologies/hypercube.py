"""Binary hypercube topologies.

Section 3.2: "The network G = (U, E) is a d-dimensional cube with U the set of
nodes of the cube with addresses of d bits and E the set of edges which
connect nodes of which the addresses differ in a single bit.
n = #U = 2^d and #E = d·2^(d-1)."

Nodes are identified by d-character bit strings (e.g. ``"0110"``), matching
the paper's Example 6 notation.
"""

from __future__ import annotations

from typing import List

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology


def bit_strings(d: int) -> List[str]:
    """All ``2**d`` bit strings of length ``d``, in numeric order."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return [format(i, f"0{d}b") for i in range(2**d)] if d > 0 else [""]


class HypercubeTopology(Topology):
    """The binary d-cube on ``2**d`` nodes: the node at index ``i`` of
    :func:`bit_strings` neighbours those at ``i XOR 2**b``, one per bit."""

    def __init__(self, dimensions: int) -> None:
        if dimensions < 1:
            raise TopologyError("hypercube needs at least one dimension")
        nodes = bit_strings(dimensions)
        # Column b lists, in node order, every node's neighbour across bit b.
        columns = [[nodes[index ^ (1 << bit)] for index in range(len(nodes))]
                   for bit in range(dimensions)]
        graph = Graph.from_neighbours(dict(zip(nodes, map(set, zip(*columns)))))
        super().__init__(graph)
        self._dimensions = dimensions

    @property
    def dimensions(self) -> int:
        """Number of address bits ``d``."""
        return self._dimensions

    def subcube(self, fixed_suffix: str = "", fixed_prefix: str = "") -> List[str]:
        """All node addresses with the given fixed prefix and/or suffix.

        ``subcube(fixed_suffix=s)`` is the set ``{x·s}`` of the server's
        algorithm; ``subcube(fixed_prefix=c)`` is the set ``{c·x}`` of the
        client's algorithm (section 3.2).
        """
        free_bits = self._dimensions - len(fixed_prefix) - len(fixed_suffix)
        if free_bits < 0:
            raise ValueError("prefix plus suffix longer than the address")
        if any(ch not in "01" for ch in fixed_prefix + fixed_suffix):
            raise ValueError("prefix and suffix must be bit strings")
        return [
            fixed_prefix + middle + fixed_suffix for middle in bit_strings(free_bits)
        ]

    def expected_match_cost(self, split_bits: int) -> int:
        """``#P + #Q`` for a prefix/suffix split at ``split_bits``.

        Splitting the address into a suffix of ``split_bits`` bits fixed by
        the server and a prefix of ``d - split_bits`` bits fixed by the client
        gives ``#P = 2**(d - split_bits)`` and ``#Q = 2**split_bits``; the
        balanced split ``d/2`` yields ``2·sqrt(n)``.
        """
        if not 0 <= split_bits <= self._dimensions:
            raise ValueError("split_bits out of range")
        return 2 ** (self._dimensions - split_bits) + 2**split_bits
