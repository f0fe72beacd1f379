"""Routing tables for store-and-forward networks.

Section 3 of the paper assumes "each node has a table containing the names of
all other nodes together with the minimum cost to reach them and the neighbor
at which the minimum cost path starts."  :class:`RoutingTable` is exactly that
table, built from breadth-first search (all channels cost one hop).

The module also implements *reverse-path forwarding* beams (section 4): a
message of a given hop budget is forwarded along arcs that the routing tables
would use in the reverse direction, simulating "sending messages along a
straight line" in an arbitrary point-to-point network.

Two costs are paid once instead of per use.  Breadth-first search visits a
node's neighbours in ``repr`` order (so tables do not depend on set
iteration order); that order is static incidence structure, so a table
sorts each node's neighbours on first visit and every later search reuses
the tuple.  A fault does not make a new network either: the table over
what survives (:meth:`RoutingTable.masked`) filters the static tuple
through the crashed nodes and failed links — a filtered sorted tuple is
the survivors' sorted tuple.  And :meth:`RoutingTable.distance`, asked
once per routed message, is one ``dict.get`` per table level on a hit.

Distances are symmetric — the paper's channels are "bidirectional" and
every graph here is undirected — so a row built from one end of a pair
answers for both: :meth:`RoutingTable.distance` reads ``destination``'s
row when ``source`` has none yet, and a query prices every reply from the
one row of the client (:meth:`RoutingTable.distance_map`) instead of
searching from each responder.
"""

from __future__ import annotations

import random
from collections import deque
from types import MappingProxyType
from typing import (AbstractSet, Dict, FrozenSet, Hashable, Iterable, List,
                    Mapping, Optional, Tuple)

from ..core.exceptions import NoRouteError, UnknownNodeError
from .graph import Graph


class RoutingTable:
    """Per-source distance and BFS-parent rows for a graph (or a mask): a
    parent row is also the source's multicast tree and what ``next_hop``
    walks.

    Rows are computed lazily per source node and cached; building one for
    every node of an ``n``-node graph costs ``O(n * (n + e))`` time overall.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._parent: Dict[Hashable, Dict[Hashable, Hashable]] = {}
        self._distance: Dict[Hashable, Dict[Hashable, int]] = {}
        # node -> its (surviving) neighbours in repr order, for every search.
        self._ordered: Dict[Hashable, Tuple[Hashable, ...]] = {}
        # A mask filters `_static`'s order by `_cut[node]` (else `_crashed`).
        self._static: Optional[RoutingTable] = None
        self._crashed: FrozenSet[Hashable] = frozenset()
        self._cut: Dict[Hashable, FrozenSet[Hashable]] = {}

    @property
    def graph(self) -> Graph:
        """The graph this table routes over (before any mask)."""
        return self._graph

    def masked(self, crashed_nodes: AbstractSet[Hashable],
               failed_links: Iterable[FrozenSet[Hashable]]) -> "RoutingTable":
        """The table over what survives ``crashed_nodes`` and ``failed_links``
        now, answering (and raising) as a table over a copy of the surviving
        subnetwork would."""
        table = RoutingTable(self._graph)
        table._static = self
        crashed = table._crashed = self._crashed | frozenset(crashed_nodes)
        for link in failed_links:
            for end in link:
                table._cut[end] = table._cut.get(end, crashed) | link
        return table

    def _neighbours(self, node: Hashable) -> Tuple[Hashable, ...]:
        """Surviving neighbours of ``node`` in ``repr`` order (made once)."""
        ordered = self._ordered.get(node)
        if ordered is None:
            if self._static is None:
                ordered = tuple(sorted(self._graph.neighbours(node), key=repr))
            else:
                drop = self._cut.get(node, self._crashed)
                ordered = tuple([v for v in self._static._neighbours(node)
                                 if v not in drop])
            self._ordered[node] = ordered
        return ordered

    def _build(self, source: Hashable) -> None:
        if source not in self._graph or source in self._crashed:
            raise UnknownNodeError(source)
        parent: Dict[Hashable, Hashable] = {source: source}
        distance: Dict[Hashable, int] = {source: 0}
        queue = deque([source])
        ordered = self._ordered
        while queue:
            node = queue.popleft()
            try:
                neighbours = ordered[node]
            except KeyError:  # first visit by any search: order once, keep
                neighbours = ordered[node] = (
                    tuple(sorted(self._graph.neighbours(node), key=repr))
                    if self._static is None else self._neighbours(node)
                )
            for neighbour in neighbours:
                if neighbour not in distance:
                    distance[neighbour] = distance[node] + 1
                    parent[neighbour] = node
                    queue.append(neighbour)
        self._parent[source] = parent
        self._distance[source] = distance

    def _rows(self, source: Hashable):
        if source not in self._distance:
            self._build(source)
        return self._parent[source], self._distance[source]

    def _unroutable(self, source: Hashable, destination: Hashable):
        """Raise for a missing route: an unknown or crashed end, else none."""
        for end in (source, destination):
            if end not in self._graph or end in self._crashed:
                raise UnknownNodeError(end)
        raise NoRouteError(source, destination)

    def next_hop(self, source: Hashable, destination: Hashable) -> Hashable:
        """The neighbour of ``source`` on a shortest path to
        ``destination`` (walking ``source``'s BFS tree up from it)."""
        parent, _ = self._rows(source)
        if destination not in parent:
            self._unroutable(source, destination)
        node = destination
        up = parent[node]
        while up != source:
            node = up
            up = parent[node]
        return node

    def distance(self, source: Hashable, destination: Hashable) -> int:
        """Hop distance between ``source`` and ``destination``.

        Channels are undirected, so when only ``destination``'s row has
        been built it answers (no second search); the errors name the ends
        in the caller's order either way.
        """
        rows = self._distance
        row = rows.get(source)
        if row is not None:
            hops = row.get(destination)
        else:
            row = rows.get(destination)
            if row is not None:
                hops = row.get(source)
            else:
                hops = self._rows(source)[1].get(destination)
        if hops is None:
            self._unroutable(source, destination)
        return hops

    def distance_map(self, source: Hashable) -> Mapping[Hashable, int]:
        """The full distance table from ``source``.

        A read-only view of the reachable set: ``destination in map`` iff a
        route exists, ``map[destination]`` is the hop distance.  Bulk
        consumers (the delivery planner) use this to plan a whole target
        set with one dict lookup per destination instead of one
        exception-guarded :meth:`distance` call each.
        """
        return MappingProxyType(self._rows(source)[1])

    def spanning_tree(self, source: Hashable) -> Dict[Hashable, Hashable]:
        """``source``'s BFS tree (``child -> parent``, root to itself) as the
        surviving graph's :meth:`Graph.spanning_tree` — shared, not a copy."""
        return self._rows(source)[0]

    def shortest_path(
        self, source: Hashable, destination: Hashable
    ) -> List[Hashable]:
        """A shortest path from ``source`` to ``destination``, inclusive."""
        path = [source]
        current = source
        # Walk next-hop pointers; each step strictly decreases the remaining
        # distance so the loop terminates in at most `distance` iterations.
        while current != destination:
            current = self.next_hop(current, destination)
            path.append(current)
        return path

    def reverse_path_beam(
        self,
        origin: Hashable,
        length: int,
        rng: random.Random,
    ) -> List[Hashable]:
        """Send a "beam" of ``length`` hops away from ``origin``.

        Implements the reverse-path-forwarding trick of section 4: the first
        hop is a uniformly random outgoing arc; every subsequent node forwards
        the message on an arc that *it would not use to route back to the
        origin*, i.e. an arc leading strictly away from the origin when one
        exists, so the beam behaves like a straight line.  When every arc
        leads back towards the origin the beam stops early (it has hit the
        "edge" of the network).

        Returns the list of nodes visited, excluding the origin.
        """
        if origin not in self._graph or origin in self._crashed:
            raise UnknownNodeError(origin)
        if length < 0:
            raise ValueError("beam length must be non-negative")
        visited: List[Hashable] = []
        current = origin
        for _ in range(length):
            neighbours = self._neighbours(current)
            if not neighbours:
                break
            origin_distance = self.distance(origin, current)
            # Prefer arcs that increase the distance from the origin (moving
            # "away"); fall back to same-distance arcs; never step back unless
            # nothing else exists.
            away = [
                v for v in neighbours if self.distance(origin, v) > origin_distance
            ]
            level = [
                v
                for v in neighbours
                if self.distance(origin, v) == origin_distance and v != current
            ]
            current = rng.choice(away or level or neighbours)
            visited.append(current)
        return visited
