"""Hop distances by breadth-first search, over any object with ``nodes``
and ``neighbours(node)`` — the paper's topologies' diameters are checked
against this, not against the routing code that prices every hop."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable


def distances(graph, source: Hashable) -> Dict[Hashable, int]:
    """Hop distance from ``source`` to every node it reaches."""
    found = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in graph.neighbours(node):
            if neighbour not in found:
                found[neighbour] = found[node] + 1
                queue.append(neighbour)
    return found


def diameter(graph) -> int:
    """The longest shortest path of a connected graph."""
    return max((max(distances(graph, node).values()) for node in graph.nodes), default=0)
