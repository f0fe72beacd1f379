"""Delivery prices by the paper's definitions, from plain graph data.

The network is plain data — nodes, edges as pairs, crashed nodes and cut
links — and what survives is rebuilt from it on every call: up nodes, and
the links that are not cut and have both ends up.  Prices follow section
2.3.5 and 1.4 literally:

``ideal``
    one hop per addressed live node other than the source;
``unicast``
    the sum of the shortest-path distances;
``multicast``
    the number of distinct edges of the source's BFS tree (neighbours taken
    in ``repr`` order) on the paths to the reached targets;
``flood``
    every reachable node along a spanning tree: their number minus one.

A destination listed twice is charged twice (multicast's tree edges are a
set).  A crashed source reaches nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

Outcome = Tuple[FrozenSet[Hashable], int, FrozenSet[Hashable]]


def surviving(
    nodes: Iterable[Hashable],
    edges: Iterable[Tuple[Hashable, Hashable]],
    crashed: Iterable[Hashable] = (),
    cut: Iterable[Iterable[Hashable]] = (),
) -> Dict[Hashable, List[Hashable]]:
    """The surviving adjacency, each node's neighbours in ``repr`` order."""
    down, failed = set(crashed), {frozenset(link) for link in cut}
    adjacency = {node: set() for node in nodes if node not in down}
    for u, v in edges:
        if u != v and u in adjacency and v in adjacency and frozenset((u, v)) not in failed:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return {node: sorted(near, key=repr) for node, near in adjacency.items()}


def bfs(adjacency, source) -> Tuple[Dict[Hashable, Hashable], Dict[Hashable, int]]:
    """``(parent, distance)`` of a BFS from ``source`` (both empty when it
    did not survive); the root is its own parent."""
    if source not in adjacency:
        return {}, {}
    parent, distance = {source: source}, {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in parent:
                parent[neighbour] = node
                distance[neighbour] = distance[node] + 1
                queue.append(neighbour)
    return parent, distance


def price(adjacency, source, destinations: Iterable[Hashable], mode: str) -> Outcome:
    """``(reached, hops, unreachable)`` of ``source -> destinations``."""
    destinations = list(destinations)
    parent, distance = bfs(adjacency, source)
    if not parent:
        return frozenset(), 0, frozenset(destinations) - {source}
    if mode == "ideal":
        reached = [d for d in destinations if d in adjacency]
        hops = sum(1 for d in reached if d != source)
    elif mode == "unicast":
        reached = [d for d in destinations if d in distance]
        hops = sum(distance[d] for d in reached)
    elif mode == "multicast":
        reached = [d for d in destinations if d in parent]
        edges = set()
        for node in reached:
            while node != source:
                edges.add(frozenset((node, parent[node])))
                node = parent[node]
        hops = len(edges)
    else:
        raise ValueError(mode)
    return frozenset(reached), hops, frozenset(destinations) - frozenset(reached)


def flood(nodes: Iterable[Hashable], adjacency, source) -> Outcome:
    """Broadcast to every node ``source`` still reaches."""
    reached = frozenset(bfs(adjacency, source)[1])
    return reached, max(len(reached) - 1, 0), frozenset(nodes) - reached


def ledger(destinations: Iterable[Hashable], outcome: Outcome) -> Dict[str, int]:
    """What one delivery adds to its category: hops, messages sent (one per
    occurrence), delivered and dropped."""
    destinations = list(destinations)
    delivered = sum(1 for d in destinations if d in outcome[0])
    return {"hops": outcome[1], "messages": len(destinations),
            "delivered": delivered, "dropped": len(destinations) - delivered}
