"""Undirected communication graphs.

The paper models a store-and-forward network as an undirected graph
``G = (U, E)`` with nodes representing processors and edges representing
"bidirectional noninterfering communication channels" (section 2.1).  This
module provides a small, dependency-free graph type with exactly the
operations the rest of the library needs: adjacency queries, connectivity
tests, traversals, induced subgraphs and spanning trees.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

from ..core.exceptions import DisconnectedGraphError, UnknownNodeError


class Graph:
    """A simple undirected graph with hashable node identifiers.

    Self-loops are ignored (a node never needs a channel to itself: local
    delivery costs zero message passes).  Parallel edges are collapsed.

    A graph whose neighbours follow a rule is built by :meth:`from_neighbours`;
    :meth:`add_edge` is for graphs that grow one edge at a time.
    """

    def __init__(
        self,
        nodes: Iterable[Hashable] = (),
        edges: Iterable[Tuple[Hashable, Hashable]] = (),
    ) -> None:
        self._adjacency: Dict[Hashable, Set[Hashable]] = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_neighbours(cls, neighbours: Dict[Any, Set[Any]]) -> "Graph":
        """The graph with each node's whole neighbour set given at once.

        Nodes keep the mapping's order, and the mapping and its sets become
        the graph's own.  A self-loop is dropped, as :meth:`add_edge` drops
        it; a pair listed from one end only raises ``ValueError`` naming it.
        """
        for node, nbrs in neighbours.items():
            if node in nbrs:
                nbrs.discard(node)
            for other in nbrs:
                if other not in neighbours or node not in neighbours[other]:
                    raise ValueError(f"asymmetric pair: {node!r} lists {other!r}, not back")
        graph = cls()
        graph._adjacency = neighbours
        return graph

    def add_node(self, node: Hashable) -> None:
        """Add a node (idempotent)."""
        self._adjacency.setdefault(node, set())

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add an undirected edge, creating endpoints as needed."""
        if u == v:
            return
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph()
        clone._adjacency = {node: set(nbrs) for node, nbrs in self._adjacency.items()}
        return clone

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> List[Hashable]:
        """All nodes, in insertion order."""
        return list(self._adjacency)

    @property
    def node_set(self) -> FrozenSet[Hashable]:
        """All nodes as a frozen set."""
        return frozenset(self._adjacency)

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """All edges, each reported once: as ``(u, v)`` from the end that
        comes first in node order."""
        position = {node: i for i, node in enumerate(self._adjacency)}
        return [(u, v) for u, nbrs in self._adjacency.items() for v in nbrs
                if position[v] > position[u]]

    def same_edges(self, other: "Graph") -> bool:
        """Whether ``other`` has the same node set and the same edge set."""
        return self._adjacency == other._adjacency

    def __contains__(self, node: Hashable) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._adjacency)

    @property
    def node_count(self) -> int:
        """Number of nodes ``n = #U``."""
        return len(self._adjacency)

    def neighbours(self, node: Hashable) -> FrozenSet[Hashable]:
        """The direct neighbours of ``node``."""
        try:
            return frozenset(self._adjacency[node])
        except KeyError:
            raise UnknownNodeError(node) from None

    def degree(self, node: Hashable) -> int:
        """The degree of ``node``."""
        return len(self.neighbours(node))

    def degree_histogram(self) -> Dict[int, int]:
        """Map ``degree -> number of nodes with that degree``.

        This is exactly the shape of the UUCPnet table in section 3.6 of the
        paper.
        """
        histogram: Dict[int, int] = {}
        for node in self._adjacency:
            d = self.degree(node)
            histogram[d] = histogram.get(d, 0) + 1
        return dict(sorted(histogram.items()))

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        return v in self._adjacency.get(u, ())

    # -- traversal / connectivity ------------------------------------------

    def connected_component(self, source: Hashable) -> FrozenSet[Hashable]:
        """All nodes in ``source``'s connected component (an unsorted walk)."""
        adjacency = self._adjacency
        if source not in adjacency:
            raise UnknownNodeError(source)
        reached = {source}
        frontier = [source]
        while frontier:
            fresh = adjacency[frontier.pop()] - reached
            reached |= fresh
            frontier.extend(fresh)
        return frozenset(reached)

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as
        connected)."""
        if not self._adjacency:
            return True
        return len(self.connected_component(next(iter(self._adjacency)))) == len(self)

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedGraphError` unless the graph is
        connected."""
        if not self.is_connected():
            source = next(iter(self._adjacency))
            raise DisconnectedGraphError(
                f"graph with {self.node_count} nodes is not connected: only "
                f"{len(self.connected_component(source))} are reachable from {source!r}"
            )

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, nodes: Iterable[Hashable]) -> "Graph":
        """The subgraph induced by ``nodes``."""
        keep = set(nodes)
        unknown = keep - set(self._adjacency)
        if unknown:
            raise UnknownNodeError(next(iter(unknown)))
        sub = Graph(nodes=keep)
        for u in keep:
            for v in self._adjacency[u]:
                if v in keep:
                    sub.add_edge(u, v)
        return sub

    def spanning_tree(self, root: Hashable) -> Dict[Hashable, Hashable]:
        """A BFS spanning tree of the component of ``root``.

        Returns a mapping ``child -> parent``; the root maps to itself.  The
        tree is used to implement spanning-tree broadcast (the paper's
        reference [2]) so that a broadcast over ``k`` nodes costs exactly
        ``k - 1`` message passes.
        """
        if root not in self._adjacency:
            raise UnknownNodeError(root)
        parent = {root: root}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbour in sorted(self._adjacency[node], key=repr):
                if neighbour not in parent:
                    parent[neighbour] = node
                    queue.append(neighbour)
        return parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.node_count}, edges={len(self.edges)})"


def complete_graph(n: int) -> Graph:
    """The complete graph on nodes ``0..n-1``.

    The theory of section 2 assumes a complete network so that "all messages
    can be routed in one message pass to their destinations"; lower bounds on
    complete networks hold a fortiori for all networks.  Each node's
    neighbour set is everyone minus itself: one set difference.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    everyone = set(range(n))
    return Graph.from_neighbours({u: everyone - {u} for u in range(n)})
