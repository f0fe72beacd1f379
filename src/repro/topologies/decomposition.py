"""Decomposition of a connected graph into O(sqrt(n)) connected subgraphs.

Section 3 of the paper relies on a construction (attributed to Erdős,
Gerencsér and Máté [4]) "to divide every connected graph in O(sqrt(n))
disjoint connected subgraphs of ~sqrt(n) nodes each".  The server's algorithm
then posts at the node labelled ``i`` in every subgraph, and the client
broadcasts inside its own subgraph.

This module implements a spanning-tree based decomposition with the same
guarantees for our purposes:

* the subgraphs partition the node set,
* every subgraph is connected,
* every subgraph has between ``target`` and ``2·target`` nodes, except
  possibly the last one which may be smaller (it absorbs the leftovers and is
  merged into a neighbour when possible).

Within each subgraph the members are numbered ``1 .. size`` (the paper's
"number the nodes in each subgraph 1 through sqrt(n)"); excess numbers in
small subgraphs simply do not exist, and the strategy divides them over the
existing nodes.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence

from ..core.exceptions import DisconnectedGraphError
from ..network.graph import Graph


class GraphDecomposition:
    """A partition of a connected graph into connected subgraphs.

    Attributes
    ----------
    blocks:
        List of node lists; ``blocks[b]`` are the members of subgraph ``b``,
        each ordered so that ``blocks[b][i]`` is "the node labelled i+1" of
        that subgraph.
    """

    def __init__(self, graph: Graph, blocks: Sequence[Sequence[Hashable]]) -> None:
        self._graph = graph
        self._blocks: List[List[Hashable]] = [list(block) for block in blocks]
        self._block_of: Dict[Hashable, int] = {}
        self._label_of: Dict[Hashable, int] = {}
        for block_index, block in enumerate(self._blocks):
            for label, node in enumerate(block, start=1):
                if node in self._block_of:
                    raise ValueError(f"node {node!r} appears in two blocks")
                self._block_of[node] = block_index
                self._label_of[node] = label
        missing = set(graph.nodes) - set(self._block_of)
        if missing:
            raise ValueError(f"{len(missing)} nodes are not covered by any block")

    # -- queries -----------------------------------------------------------

    @property
    def blocks(self) -> List[List[Hashable]]:
        """The blocks (copy)."""
        return [list(block) for block in self._blocks]

    @property
    def block_count(self) -> int:
        """Number of blocks."""
        return len(self._blocks)

    def block_of(self, node: Hashable) -> int:
        """Index of the block containing ``node``."""
        try:
            return self._block_of[node]
        except KeyError:
            raise ValueError(f"{node!r} is not in any block") from None

    def label_of(self, node: Hashable) -> int:
        """The 1-based label of ``node`` inside its block."""
        return self._label_of[self._validate(node)]

    def members(self, block_index: int) -> List[Hashable]:
        """The members of block ``block_index`` in label order."""
        return list(self._blocks[block_index])

    def node_with_label(self, block_index: int, label: int) -> Hashable:
        """The node of ``block_index`` carrying ``label``.

        When the block is smaller than ``label`` the excess labels are
        "divided over the nodes" by wrapping around, as the paper suggests.
        """
        block = self._blocks[block_index]
        if label < 1:
            raise ValueError("labels are 1-based")
        return block[(label - 1) % len(block)]

    def peers_with_label(self, label: int) -> List[Hashable]:
        """The node carrying ``label`` in every block (one per block)."""
        return [
            self.node_with_label(block_index, label)
            for block_index in range(self.block_count)
        ]

    def verify(self) -> None:
        """Check partition and connectivity invariants; raise on violation."""
        seen = set()
        for block in self._blocks:
            if not block:
                raise ValueError("empty block")
            overlap = seen & set(block)
            if overlap:
                raise ValueError(f"blocks overlap on {overlap}")
            seen |= set(block)
            if not self._graph.induced_subgraph(block).is_connected():
                raise ValueError(f"block {block} does not induce a connected subgraph")
        if seen != set(self._graph.nodes):
            raise ValueError("blocks do not cover the graph")

    def _validate(self, node: Hashable) -> Hashable:
        if node not in self._block_of:
            raise ValueError(f"{node!r} is not in any block")
        return node


def decompose(graph: Graph, target_size: Optional[int] = None) -> GraphDecomposition:
    """Partition a connected graph into connected blocks of ~``target_size``.

    ``target_size`` defaults to ``ceil(sqrt(n))``, producing the paper's
    O(sqrt(n)) blocks of ~sqrt(n) nodes.

    Algorithm: build a BFS spanning tree and walk it in post-order keeping a
    *residual bag* per node — the node itself plus the residual bags of its
    children that were too small to stand alone.  Whenever a child's complete
    residual bag reaches ``target_size`` it is emitted as a block (it is
    connected: it is a node of the tree together with entire residual subtrees
    hanging below it).  The bag that remains at the root forms the final
    block; it may be smaller than ``target_size``.

    Every emitted block has at least ``target_size`` members, so there are at
    most ``n / target_size + 1`` blocks — O(sqrt(n)) for the default target.
    Block sizes are usually below ``2 * target_size``; on nodes of very high
    tree degree they can exceed that, which only makes the server's posting
    cheaper and the client's broadcast slightly costlier, preserving the
    paper's overall O(n) post / O(sqrt(n)) query trade-off.
    """
    if not graph.is_connected():
        raise DisconnectedGraphError("decomposition requires a connected graph")
    n = graph.node_count
    if n == 0:
        return GraphDecomposition(graph, [])
    if target_size is None:
        target_size = max(1, math.ceil(math.sqrt(n)))
    if target_size < 1:
        raise ValueError("target_size must be at least 1")

    root = graph.nodes[0]
    parent = graph.spanning_tree(root)
    children: Dict[Hashable, List[Hashable]] = {node: [] for node in graph.nodes}
    for child, par in parent.items():
        if child != par:
            children[par].append(child)

    blocks: List[List[Hashable]] = []
    residual: Dict[Hashable, List[Hashable]] = {}

    # Post-order (children before parents): the tree's keys are in BFS order.
    for node in reversed(parent):
        bag: List[Hashable] = [node]
        for child in children[node]:
            child_bag = residual.pop(child, [])
            if len(child_bag) >= target_size:
                blocks.append(child_bag)
            else:
                bag.extend(child_bag)
        residual[node] = bag

    root_bag = residual.pop(root, [root])
    if root_bag:
        blocks.append(root_bag)

    decomposition = GraphDecomposition(graph, blocks)
    decomposition.verify()
    return decomposition
