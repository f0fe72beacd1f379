"""Match-making on binary hypercubes (Example 6 and section 3.2).

Example 6 (d = 3): ``P(abc) = {axy | x,y ∈ {0,1}}`` — the server fixes the
*first* bit of its own address and sweeps the rest — and
``Q(abc) = {xbc | x ∈ {0,1}}`` — the client fixes the *last two* bits.  The
two subcubes intersect in exactly one node, ``a·bc`` (server prefix, client
suffix).

Section 3.2 generalises to d-dimensional cubes with the address split in the
middle (``d/2`` bits each), giving ``#P = #Q = sqrt(n)`` and
``m(n) = 2·sqrt(n)``; "variants of the algorithm are obtained by splitting
the corner address ... in pieces of eps·d and (1-eps)·d bits", e.g. to
exploit relative immobility of servers.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional

from ..core.exceptions import StrategyError
from ..core.types import Port
from ..topologies.hypercube import HypercubeTopology
from .base import TopologyStrategy


class HypercubeStrategy(TopologyStrategy):
    """Prefix/suffix subcube match-making on a binary d-cube.

    Parameters
    ----------
    topology:
        The hypercube.
    server_prefix_bits:
        How many leading address bits the server keeps fixed (the client
        keeps the remaining ``d - server_prefix_bits`` trailing bits fixed).
        Defaults to ``d // 2``, the balanced split of section 3.2; a value of
        1 on a 3-cube reproduces Example 6 exactly.
    """

    name = "hypercube-subcube"
    expected_topology = HypercubeTopology

    def __init__(
        self, topology: HypercubeTopology, server_prefix_bits: Optional[int] = None
    ) -> None:
        super().__init__(topology)
        d = topology.dimensions
        if server_prefix_bits is None:
            server_prefix_bits = d // 2
        if not 0 <= server_prefix_bits <= d:
            raise StrategyError(
                f"server_prefix_bits must be in 0..{d}, got {server_prefix_bits}"
            )
        self._prefix_bits = server_prefix_bits

    @property
    def server_prefix_bits(self) -> int:
        """Number of leading bits the server fixes."""
        return self._prefix_bits

    @property
    def client_suffix_bits(self) -> int:
        """Number of trailing bits the client fixes."""
        return self.topology.dimensions - self._prefix_bits

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        prefix = node[: self._prefix_bits]
        return frozenset(self.topology.subcube(fixed_prefix=prefix))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        suffix = node[self._prefix_bits :]
        return frozenset(self.topology.subcube(fixed_suffix=suffix))

    def addressed_nodes(self) -> int:
        """``#P + #Q`` for this split (the same for every pair)."""
        return self.topology.expected_match_cost(self.client_suffix_bits)
