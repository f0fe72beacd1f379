"""Manhattan (grid), torus and d-dimensional mesh topologies.

Section 3.1 of the paper: "The network is laid out as a p × q rectangular
grid of nodes.  Post availability of a service along its row and request a
service along the column the client is on."  Wrap-around versions give
cylinders and tori ("the method used in the torus-shaped Stony Brook
Microcomputer Network"); the obvious generalization to d-dimensional meshes
takes ``m(n) = 2 n^{(d-1)/d}`` message passes.

Nodes are identified by coordinate tuples; the 2-D case uses ``(row, col)``.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology

Coordinate = Tuple[int, ...]


def _grid_graph(sides: Tuple[int, ...], wrap: bool) -> Graph:
    """The mesh with the given sides, nodes in row-major order.

    A node neighbours the nodes one step away along each axis.  Each
    column below lists, in node order, every node's neighbour one step
    along one axis: the same product of ranges with that axis's range
    shifted by the step.  Off the edge of an unwrapped side the "neighbour"
    is the node itself, and with ``wrap`` a side of 1 or 2 gives a
    self-loop or a repeat; the bulk path folds both away.
    """
    ranges = [range(side) for side in sides]
    columns = []
    for axis, side in enumerate(sides):
        for step in (-1, 1):
            shifted = [(k + step) % side if wrap or 0 <= k + step < side else k
                       for k in range(side)]
            columns.append(itertools.product(*ranges[:axis], shifted, *ranges[axis + 1:]))
    return Graph.from_neighbours(
        dict(zip(itertools.product(*ranges), map(set, zip(*columns))))
    )


class ManhattanTopology(Topology):
    """A ``rows × cols`` rectangular grid, optionally with wrap-around.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (both ≥ 1, at least 2 nodes overall).
    wrap:
        When ``True`` the grid wraps around in both dimensions, producing the
        torus used by the Stony Brook Microcomputer Network.

    The graph is the 2-D mesh of :class:`MeshTopology`: node ``(r, c)``
    neighbours ``(r ± 1, c)`` and ``(r, c ± 1)``.
    """

    def __init__(self, rows: int, cols: int, wrap: bool = False) -> None:
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise TopologyError("grid must contain at least two nodes")
        super().__init__(_grid_graph((rows, cols), wrap))
        self._rows = rows
        self._cols = cols

    def row_of(self, node: Coordinate) -> List[Coordinate]:
        """All nodes sharing the row of ``node`` (including itself)."""
        r, _ = node
        return [(r, c) for c in range(self._cols)]

    def column_of(self, node: Coordinate) -> List[Coordinate]:
        """All nodes sharing the column of ``node`` (including itself)."""
        _, c = node
        return [(r, c) for r in range(self._rows)]

    @classmethod
    def square(cls, side: int, wrap: bool = False) -> "ManhattanTopology":
        """A ``side × side`` grid — the ``p = q`` case with
        ``m(n) = 2·sqrt(n)``."""
        return cls(side, side, wrap=wrap)


class MeshTopology(Topology):
    """A d-dimensional mesh with the given side lengths, optionally
    wrapping.

    Node identifiers are d-tuples of coordinates.  The 2-dimensional case
    coincides with :class:`ManhattanTopology`; higher dimensions realise the
    paper's "obvious generalization to d-dimensional meshes".  A node
    neighbours the nodes one step away along each axis.
    """

    def __init__(self, sides: Sequence[int], wrap: bool = False) -> None:
        sides = tuple(int(s) for s in sides)
        if not sides or any(s < 1 for s in sides):
            raise TopologyError("every mesh dimension must be at least 1")
        total = 1
        for s in sides:
            total *= s
        if total < 2:
            raise TopologyError("mesh must contain at least two nodes")
        super().__init__(_grid_graph(sides, wrap))
        self._sides = sides

    @property
    def dimensions(self) -> int:
        """Number of dimensions ``d``."""
        return len(self._sides)

    def slice_through(
        self, node: Coordinate, free_axes: Sequence[int]
    ) -> List[Coordinate]:
        """All nodes matching ``node`` on every axis not in ``free_axes``.

        This is the d-dimensional generalisation of "the row of a node": the
        nodes reachable by varying only the ``free_axes`` coordinates.
        """
        free = set(free_axes)
        if any(axis < 0 or axis >= self.dimensions for axis in free):
            raise ValueError(f"axis out of range for {self.dimensions}-d mesh")
        ranges = [
            range(self._sides[axis]) if axis in free else (node[axis],)
            for axis in range(self.dimensions)
        ]
        return [tuple(c) for c in itertools.product(*ranges)]
