"""Row/column match-making on Manhattan grids and d-dimensional meshes
(section 3.1).

"Post availability of a service along its row and request a service along the
column the client is on.  Caches are of size O(q) and number of message
passes for each match-making instance is O(p+q).  For p = q we have
m(n) = 2·sqrt(n)."

For d-dimensional meshes the row/column generalise to axis-orthogonal slices:
the server posts along the slice that fixes one axis at its own coordinate,
the client queries along the slice fixing a *different* axis; the two slices
always intersect, and for equal sides the cost is ``2·n^((d-1)/d)`` — the
paper's figure for d-dimensional meshes.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Sequence

from ..core.exceptions import StrategyError
from ..core.types import Port
from ..topologies.manhattan import ManhattanTopology, MeshTopology
from .base import TopologyStrategy


class ManhattanStrategy(TopologyStrategy):
    """Row-post / column-query on a 2-D Manhattan grid or torus."""

    name = "manhattan-row-column"
    expected_topology = ManhattanTopology

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset(self.topology.row_of(node))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset(self.topology.column_of(node))


class MeshSliceStrategy(TopologyStrategy):
    """Axis-slice match-making on a d-dimensional mesh.

    Parameters
    ----------
    topology:
        The mesh.
    post_fixed_axes / query_fixed_axes:
        The axes whose coordinate the server (resp. client) keeps fixed; the
        other axes are swept.  The two sets must be disjoint so that the
        slices always intersect.  Defaults reproduce the paper's rows and
        columns: the server fixes axis 0, the client fixes axis 1.
    """

    name = "mesh-slice"
    expected_topology = MeshTopology

    def __init__(
        self,
        topology: MeshTopology,
        post_fixed_axes: Sequence[int] = (0,),
        query_fixed_axes: Sequence[int] = (1,),
    ) -> None:
        super().__init__(topology)
        post_fixed = tuple(sorted(set(post_fixed_axes)))
        query_fixed = tuple(sorted(set(query_fixed_axes)))
        dims = topology.dimensions
        for axis in post_fixed + query_fixed:
            if not 0 <= axis < dims:
                raise StrategyError(
                    f"axis {axis} out of range for a {dims}-dimensional mesh"
                )
        if set(post_fixed) & set(query_fixed):
            raise StrategyError(
                "post_fixed_axes and query_fixed_axes must be disjoint so the "
                "slices are guaranteed to intersect"
            )
        if not post_fixed or not query_fixed:
            raise StrategyError("both fixed-axis sets must be non-empty")
        self._post_free = tuple(a for a in range(dims) if a not in post_fixed)
        self._query_free = tuple(a for a in range(dims) if a not in query_fixed)

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset(self.topology.slice_through(node, self._post_free))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset(self.topology.slice_through(node, self._query_free))
