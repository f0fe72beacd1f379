"""Finite projective plane topology PG(2, k).

Section 3.4: "The projective plane PG(2,k) has n = k² + k + 1 points and
equally many lines.  Each line consists of k + 1 points and k + 1 lines pass
through each point.  Each pair of lines has exactly one point in common.  A
server posts its (port, address) to all nodes on an arbitrary line incident on
its host node.  A client queries all nodes on an arbitrary line incident on
its own host node.  The common node of the two lines is the rendez-vous node."

We construct PG(2, k) over the prime field GF(k) (``k`` must be prime; that
covers all the sizes the experiments need: 7, 13, 31, 57, 133, ... nodes).
Points and lines are both represented by normalised non-zero triples over
GF(k); point ``p`` lies on line ``l`` iff ``p · l ≡ 0 (mod k)``.

As a *communication* graph we connect the points of every line in a cycle, so
each node has degree ``2(k+1)`` (minus collisions) and routing along a line is
cheap; the match-making strategy itself only relies on the line structure.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.exceptions import TopologyError
from ..network.graph import Graph
from .base import Topology

Point = Tuple[int, int, int]


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    if k % 2 == 0:
        return k == 2
    divisor = 3
    while divisor * divisor <= k:
        if k % divisor == 0:
            return False
        divisor += 2
    return True


def _normalise(triple: Tuple[int, int, int], k: int) -> Point:
    """Scale a non-zero triple so its first non-zero coordinate is 1."""
    for value in triple:
        if value % k != 0:
            inverse = pow(value, k - 2, k)  # Fermat inverse, k prime.
            return tuple((coordinate * inverse) % k for coordinate in triple)  # type: ignore[return-value]
    raise ValueError("the zero triple does not represent a projective point")


def projective_points(k: int) -> List[Point]:
    """The ``k² + k + 1`` points of PG(2, k), as normalised triples."""
    if not _is_prime(k):
        raise TopologyError(
            f"PG(2, {k}) construction requires prime k (got {k}); "
            f"prime powers are not supported"
        )
    points = set()
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if x == y == z == 0:
                    continue
                points.add(_normalise((x, y, z), k))
    return sorted(points)


def incidence(point: Point, line: Point, k: int) -> bool:
    """Whether ``point`` lies on ``line`` (zero dot product modulo ``k``)."""
    return sum(p * l for p, l in zip(point, line)) % k == 0


class ProjectivePlaneTopology(Topology):
    """PG(2, k) as a communication network.

    Attributes
    ----------
    order:
        The plane order ``k``.
    points / lines:
        The normalised homogeneous triples naming points and lines.
    """

    def __init__(self, order: int) -> None:
        points = projective_points(order)
        lines = list(points)  # PG(2,k) is self-dual: same triples name lines.
        line_members: Dict[Point, List[Point]] = {
            line: [point for point in points if incidence(point, line, order)]
            for line in lines
        }
        neighbours: Dict[Point, Set[Point]] = {point: set() for point in points}
        for members in line_members.values():
            # Connect the points of the line in a cycle for cheap routing.
            for index, point in enumerate(members):
                neighbours[point] |= {
                    members[index - 1], members[(index + 1) % len(members)]
                }
        super().__init__(Graph.from_neighbours(neighbours))
        self._order = order
        self._points = points
        self._line_members = line_members
        self._lines_through: Dict[Point, List[Point]] = {
            point: [
                line for line, members in line_members.items() if point in members
            ]
            for point in points
        }

    @property
    def order(self) -> int:
        """The plane order ``k``."""
        return self._order

    @property
    def points(self) -> List[Point]:
        """All points (node identifiers)."""
        return list(self._points)

    @property
    def lines(self) -> List[Point]:
        """All lines (as dual triples)."""
        return list(self._line_members)

    def points_on_line(self, line: Point) -> List[Point]:
        """The ``k + 1`` points of ``line``."""
        try:
            return list(self._line_members[line])
        except KeyError:
            raise ValueError(f"{line!r} is not a line of PG(2, {self._order})") from None

    def lines_through(self, point: Point) -> List[Point]:
        """The ``k + 1`` lines through ``point``."""
        try:
            return list(self._lines_through[point])
        except KeyError:
            raise ValueError(
                f"{point!r} is not a point of PG(2, {self._order})"
            ) from None

    def common_point(self, line_a: Point, line_b: Point) -> Point:
        """The unique point two distinct lines share."""
        if line_a == line_b:
            raise ValueError("lines must be distinct")
        common = set(self.points_on_line(line_a)) & set(self.points_on_line(line_b))
        if len(common) != 1:  # pragma: no cover - guaranteed by PG(2,k) axioms
            raise TopologyError(
                f"lines {line_a} and {line_b} share {len(common)} points"
            )
        return next(iter(common))

    def verify_axioms(self) -> None:
        """Check the defining axioms of a projective plane of order ``k``.

        Raises :class:`TopologyError` if any fails; used by tests and as a
        sanity check for larger orders.
        """
        k = self._order
        expected = k * k + k + 1
        if len(self._points) != expected:
            raise TopologyError(
                f"expected {expected} points, constructed {len(self._points)}"
            )
        for line, members in self._line_members.items():
            if len(members) != k + 1:
                raise TopologyError(f"line {line} has {len(members)} points")
        for point, lines in self._lines_through.items():
            if len(lines) != k + 1:
                raise TopologyError(f"point {point} lies on {len(lines)} lines")
        lines = list(self._line_members)
        for i, line_a in enumerate(lines):
            for line_b in lines[i + 1 :]:
                common = set(self._line_members[line_a]) & set(
                    self._line_members[line_b]
                )
                if len(common) != 1:
                    raise TopologyError(
                        f"lines {line_a} and {line_b} share {len(common)} points"
                    )
