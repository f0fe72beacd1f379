"""Base classes shared by the concrete strategies.

Concrete strategies fall into two groups:

* *universe strategies* that only need to know the set of nodes (broadcast,
  sweep, centralized, checkerboard, hash locate);
* *topology strategies* that exploit structural metadata of a specific
  :class:`~repro.topologies.base.Topology` (Manhattan rows/columns, hypercube
  subcubes, projective-plane lines, hierarchy gateways, tree paths, ...).
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Optional

from ..core.exceptions import StrategyError
from ..core.strategy import MatchMakingStrategy
from ..topologies.base import Topology


def stable_digest(*parts: str) -> int:
    """A deterministic integer digest of the given string parts.

    Python's built-in ``hash`` is randomised per process, so the hashing
    strategies place replicas with SHA-256 instead; only determinism and
    spread matter here, not cryptographic strength.
    """
    joined = "\x1f".join(parts)
    return int.from_bytes(hashlib.sha256(joined.encode("utf-8")).digest()[:8], "big")


class UniverseStrategy(MatchMakingStrategy):
    """A strategy defined over an explicit node universe."""

    def __init__(self, universe: Iterable[Hashable]) -> None:
        self._universe = frozenset(universe)
        if not self._universe:
            raise StrategyError(f"{self.name}: the universe must not be empty")

    def _require_member(self, node: Hashable) -> None:
        if node not in self._universe:
            raise StrategyError(f"{self.name}: {node!r} is not in the universe")


class TopologyStrategy(MatchMakingStrategy):
    """A strategy bound to a concrete topology instance."""

    #: The topology class this strategy expects (checked at construction).
    expected_topology: Optional[type] = None

    def __init__(self, topology: Topology) -> None:
        if self.expected_topology is not None and not isinstance(
            topology, self.expected_topology
        ):
            raise StrategyError(
                f"{self.name} requires a {self.expected_topology.__name__}, "
                f"got {type(topology).__name__}"
            )
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """The topology this strategy is bound to."""
        return self._topology

    def _require_member(self, node: Hashable) -> None:
        if node not in self._topology.graph:
            raise StrategyError(
                f"{self.name}: {node!r} is not a node of {self._topology.name}"
            )
