"""Match-making on projective-plane networks (section 3.4).

"A server s posts its (port, address) to all nodes on an arbitrary line
incident on its host node.  A client c queries all nodes on an arbitrary line
incident on its own host node.  The common node of the two lines is the
rendez-vous node. ... m(n) = #P(s) + #Q(c) = 2(k+1) ≈ 2·sqrt(n)."

Line choice is "arbitrary"; for a deterministic, reproducible strategy we
pick the ``line_index``-th line through the host (sorted order).  Letting the
server and the client use *different* indices exercises the generic case
where the chosen lines are distinct and meet in exactly one point; equal
indices occasionally make the two lines coincide (when server and client lie
on a common line), which only enlarges the rendezvous set.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional

from ..core.exceptions import StrategyError
from ..core.types import Port
from ..topologies.projective_plane import Point, ProjectivePlaneTopology
from .base import TopologyStrategy


class ProjectivePlaneStrategy(TopologyStrategy):
    """Post along one line, query along one line, meet at their common
    point."""

    name = "projective-plane-lines"
    expected_topology = ProjectivePlaneTopology

    def __init__(
        self,
        topology: ProjectivePlaneTopology,
        post_line_index: int = 0,
        query_line_index: int = 1,
    ) -> None:
        super().__init__(topology)
        lines_per_point = topology.order + 1
        for value, label in (
            (post_line_index, "post_line_index"),
            (query_line_index, "query_line_index"),
        ):
            if not 0 <= value < lines_per_point:
                raise StrategyError(
                    f"{label} must be in 0..{lines_per_point - 1}, got {value}"
                )
        self._post_line_index = post_line_index
        self._query_line_index = query_line_index

    def post_line(self, node: Point) -> Point:
        """The line a server at ``node`` advertises along."""
        self._require_member(node)
        lines = sorted(self.topology.lines_through(node))
        return lines[self._post_line_index]

    def query_line(self, node: Point) -> Point:
        """The line a client at ``node`` queries along."""
        self._require_member(node)
        lines = sorted(self.topology.lines_through(node))
        return lines[self._query_line_index]

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        return frozenset(self.topology.points_on_line(self.post_line(node)))

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        return frozenset(self.topology.points_on_line(self.query_line(node)))

    def rendezvous_point(self, server: Point, client: Point) -> Point:
        """The common point of the server's and the client's chosen lines.

        When the two chosen lines coincide the whole line is a rendezvous
        set; this helper then returns the server's own host point.
        """
        server_line = self.post_line(server)
        client_line = self.query_line(client)
        if server_line == client_line:
            return server
        return self.topology.common_point(server_line, client_line)
