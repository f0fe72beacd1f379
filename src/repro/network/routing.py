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
sorts each node's neighbours on first visit and every later search from
another source reuses the tuple.  And :meth:`RoutingTable.distance`, asked
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
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from ..core.exceptions import NoRouteError, UnknownNodeError
from .graph import Graph


class RoutingTable:
    """Per-source next-hop and distance tables for a graph.

    The table is computed lazily per source node and cached; building it for
    every node of an ``n``-node graph costs ``O(n * (n + e))`` time overall.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._next_hop: Dict[Hashable, Dict[Hashable, Hashable]] = {}
        self._distance: Dict[Hashable, Dict[Hashable, int]] = {}
        # node -> its neighbours in repr order, shared by every search.
        self._ordered: Dict[Hashable, Tuple[Hashable, ...]] = {}

    @property
    def graph(self) -> Graph:
        """The graph this table routes over."""
        return self._graph

    def invalidate(self) -> None:
        """Drop all cached tables (call after the graph changes)."""
        self._next_hop.clear()
        self._distance.clear()
        self._ordered.clear()

    def _build(self, source: Hashable) -> None:
        if source not in self._graph:
            raise UnknownNodeError(source)
        next_hop: Dict[Hashable, Hashable] = {source: source}
        distance: Dict[Hashable, int] = {source: 0}
        queue = deque([source])
        ordered = self._ordered
        while queue:
            node = queue.popleft()
            try:
                neighbours = ordered[node]
            except KeyError:
                # First visit by any search of this table: sort once, keep.
                neighbours = ordered[node] = tuple(
                    sorted(self._graph.neighbours(node), key=repr)
                )
            for neighbour in neighbours:
                if neighbour not in distance:
                    distance[neighbour] = distance[node] + 1
                    # First hop from `source` towards `neighbour`:
                    next_hop[neighbour] = (
                        neighbour if node == source else next_hop[node]
                    )
                    queue.append(neighbour)
        self._next_hop[source] = next_hop
        self._distance[source] = distance

    def _tables_for(self, source: Hashable):
        if source not in self._next_hop:
            self._build(source)
        return self._next_hop[source], self._distance[source]

    def next_hop(self, source: Hashable, destination: Hashable) -> Hashable:
        """The neighbour of ``source`` on a shortest path to
        ``destination``."""
        hops, _ = self._tables_for(source)
        if destination not in hops:
            if destination not in self._graph:
                raise UnknownNodeError(destination)
            raise NoRouteError(source, destination)
        return hops[destination]

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
                hops = self._tables_for(source)[1].get(destination)
        if hops is None:
            for end in (source, destination):
                if end not in self._graph:
                    raise UnknownNodeError(end)
            raise NoRouteError(source, destination)
        return hops

    def distance_map(self, source: Hashable) -> Mapping[Hashable, int]:
        """The full distance table from ``source``.

        A read-only view of the reachable set: ``destination in map`` iff a
        route exists, ``map[destination]`` is the hop distance.  Bulk
        consumers (the delivery planner) use this to plan a whole target
        set with one dict lookup per destination instead of one
        exception-guarded :meth:`distance` call each.
        """
        _, dist = self._tables_for(source)
        return MappingProxyType(dist)

    def has_route(self, source: Hashable, destination: Hashable) -> bool:
        """Whether a route exists."""
        try:
            self.distance(source, destination)
            return True
        except (NoRouteError, UnknownNodeError):
            return False

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

    def eccentricity(self, source: Hashable) -> int:
        """Maximum distance from ``source`` to any other node."""
        _, dist = self._tables_for(source)
        return max(dist.values(), default=0)

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
        if origin not in self._graph:
            raise UnknownNodeError(origin)
        if length < 0:
            raise ValueError("beam length must be non-negative")
        visited: List[Hashable] = []
        current = origin
        for _ in range(length):
            neighbours = sorted(self._graph.neighbours(current), key=repr)
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
            pool: Sequence[Hashable]
            if away:
                pool = away
            elif level:
                pool = level
            else:
                pool = neighbours
            current = rng.choice(list(pool))
            visited.append(current)
        return visited


def path_cost(table: RoutingTable, path: Sequence[Hashable]) -> int:
    """Number of message passes needed to walk ``path`` (``len(path) - 1``)."""
    if not path:
        return 0
    return len(path) - 1


def route_cost(
    table: RoutingTable, source: Hashable, destinations: Sequence[Hashable]
) -> int:
    """Total hops to send one point-to-point message from ``source`` to each
    destination individually (no multicast sharing).
    """
    total = 0
    for destination in destinations:
        if destination == source:
            continue
        total += table.distance(source, destination)
    return total


def multicast_tree_cost(
    graph: Graph, source: Hashable, destinations: Sequence[Hashable]
) -> int:
    """Hops to reach ``destinations`` from ``source`` along a BFS tree.

    When the addressed set induces a connected subgraph containing the source,
    this equals ``#destinations`` minus (1 if the source is a destination),
    matching the paper's claim that broadcasting over spanning trees makes
    ``m(i,j)`` equal to the number of addressed nodes (section 2.3.5).  In
    general it is the number of tree edges that must carry the message.
    """
    targets = {d for d in destinations if d != source}
    if not targets:
        return 0
    parent = graph.spanning_tree(source)
    needed_edges = set()
    for target in targets:
        if target not in parent:
            raise NoRouteError(source, target)
        node = target
        while node != source:
            needed_edges.add(frozenset((node, parent[node])))
            node = parent[node]
    return len(needed_edges)
