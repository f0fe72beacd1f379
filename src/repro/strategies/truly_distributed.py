"""The truly distributed (checkerboard) strategy — Example 4 /
Proposition 3.

"Truly distributed name server.  All nodes are used equally often as
rendez-vous node."  The rendezvous matrix is tiled with ~sqrt(n) × sqrt(n)
blocks, each assigned one distinct node, giving ``#P(i) ≈ #Q(j) ≈ sqrt(n)``,
``m(n) ≈ 2·sqrt(n)`` and a perfectly balanced load ``k_i ≈ n``.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Optional, Sequence

from ..core.bounds import checkerboard_grid
from ..core.exceptions import StrategyError
from ..core.types import Port
from .base import UniverseStrategy


class CheckerboardStrategy(UniverseStrategy):
    """Example 4's balanced, truly distributed strategy for any universe.

    The universe is ordered (the ``order`` argument, defaulting to sorted by
    ``repr``) and the Proposition 3 checkerboard grid built over it; then

    * ``P(i)`` = the block representatives of row ``i`` (one per block
      column),
    * ``Q(j)`` = the block representatives of column ``j`` (one per block
      row),

    whose intersection is exactly the representative of the block containing
    ``(i, j)`` — a single node, so the strategy is optimal (no redundancy,
    no waste).
    """

    name = "checkerboard"

    def __init__(
        self,
        universe,
        order: Optional[Sequence[Hashable]] = None,
    ) -> None:
        super().__init__(universe)
        if order is None:
            ordered = sorted(self._universe, key=repr)
        else:
            ordered = list(order)
            if frozenset(ordered) != self._universe:
                raise StrategyError(
                    "order must be a permutation of the universe"
                )
        self._ordered: List[Hashable] = ordered
        self._index = {node: position for position, node in enumerate(ordered)}
        self._grid = checkerboard_grid(ordered)
        n = len(ordered)
        self._post_sets = {
            node: frozenset(self._grid[self._index[node]][j] for j in range(n))
            for node in ordered
        }
        self._query_sets = {
            node: frozenset(self._grid[i][self._index[node]] for i in range(n))
            for node in ordered
        }

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._post_sets[node]

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._query_sets[node]
