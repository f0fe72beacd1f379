"""Topology base class.

A *topology* wraps a communication graph together with the structural
metadata (coordinates, levels, lines, ...) that topology-aware match-making
strategies need.  Every concrete topology in this subpackage corresponds to a
network family discussed in section 3 of the paper.
"""

from __future__ import annotations

from typing import Hashable, List

from ..network.graph import Graph
from ..network.simulator import Network


class Topology:
    """Base class: a connected graph with convenience constructors."""

    def __init__(self, graph: Graph) -> None:
        graph.require_connected()
        self._graph = graph

    @property
    def graph(self) -> Graph:
        """The communication graph."""
        return self._graph

    @property
    def node_count(self) -> int:
        """Number of nodes ``n``."""
        return self._graph.node_count

    def nodes(self) -> List[Hashable]:
        """All node identifiers."""
        return self._graph.nodes

    def build_network(self, **kwargs) -> Network:
        """Instantiate a simulator :class:`~repro.network.Network` on this
        topology."""
        return Network(self._graph, **kwargs)
