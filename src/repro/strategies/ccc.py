"""Match-making on cube-connected cycles (section 3.3).

"An algorithm similar to that of the d-dimensional cube yields, appropriately
tuned, for an n-node CCC network caches of size ~sqrt(n / log n) and
m(n) ∈ O(sqrt(n·log n))."

Tuning used here (one of the natural choices): split the ``d``-bit corner
address into a client prefix of ``floor(d/2)`` bits and a server suffix of
``ceil(d/2)`` bits.

* A server at cycle position ``p`` of corner ``w`` posts at the *single*
  node at its own position ``p`` of every corner whose suffix matches ``w``:
  ``#P = 2^(d - ceil(d/2)) ≈ sqrt(n / d)``.
* A client at corner ``w'`` queries *every* cycle node of every corner whose
  prefix matches ``w'``: ``#Q = d · 2^(ceil(d/2)) ≈ sqrt(n·d)``.

The unique corner combining the client's prefix with the server's suffix is
addressed by both; the client sweeps its whole cycle, so it certainly hits
the position the server chose.  A rendezvous node at position ``p`` of corner
``u`` only stores postings from the ``2^(d-ceil(d/2))`` servers at position
``p`` with matching suffix, which is the paper's ``sqrt(n / log n)`` cache
bound (``d ≈ log n``).
"""

from __future__ import annotations

import math
from typing import FrozenSet, Hashable, Optional, Tuple

from ..core.types import Port
from ..topologies.ccc import CubeConnectedCyclesTopology
from .base import TopologyStrategy


class CubeConnectedCyclesStrategy(TopologyStrategy):
    """Prefix/suffix corner match-making on a CCC network."""

    name = "ccc-subcube"
    expected_topology = CubeConnectedCyclesTopology

    def __init__(self, topology: CubeConnectedCyclesTopology) -> None:
        super().__init__(topology)
        d = topology.dimensions
        self._suffix_bits = math.ceil(d / 2)
        self._prefix_bits = d - self._suffix_bits

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        position, corner = node
        suffix = corner[self._prefix_bits :]
        corners = self.topology.corners_with_suffix(suffix)
        return frozenset((position, target) for target in corners)

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        _, corner = node
        prefix = corner[: self._prefix_bits]
        corners = self.topology.corners_with_prefix(prefix)
        targets = set()
        for target in corners:
            targets.update(self.topology.cycle_of(target))
        return frozenset(targets)

    def expected_costs(self) -> Tuple[int, int]:
        """``(#P, #Q)`` — the same for every node."""
        d = self.topology.dimensions
        return 2 ** (d - self._suffix_bits), d * (2**self._suffix_bits)
