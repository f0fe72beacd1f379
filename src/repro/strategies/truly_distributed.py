"""The truly distributed (checkerboard) strategy — Example 4 /
Proposition 3.

"Truly distributed name server.  All nodes are used equally often as
rendez-vous node."  The rendezvous matrix is tiled with ~sqrt(n) × sqrt(n)
blocks, each assigned one distinct node, giving ``#P(i) ≈ #Q(j) ≈ sqrt(n)``,
``m(n) ≈ 2·sqrt(n)`` and a perfectly balanced load ``k_i ≈ n``.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Sequence

from ..core.bounds import checkerboard_tiling
from ..core.exceptions import StrategyError
from ..core.types import Port
from .base import UniverseStrategy


class CheckerboardStrategy(UniverseStrategy):
    """Example 4's balanced, truly distributed strategy for any universe.

    The universe is ordered (the ``order`` argument, defaulting to sorted by
    ``repr``) and tiled as the Proposition 3 checkerboard grid over it; then

    * ``P(i)`` = the block representatives of row ``i`` (one per block
      column),
    * ``Q(j)`` = the block representatives of column ``j`` (one per block
      row),

    whose intersection is exactly the representative of the block containing
    ``(i, j)`` — a single node, so the strategy is optimal (no redundancy,
    no waste).

    Construction is O(n): the ~sqrt(n) block-row and block-column sets are
    built once and shared, never the ``n × n`` grid.
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
            if len(ordered) != len(self._universe) or frozenset(ordered) != self._universe:
                raise StrategyError("order must be a permutation of the universe")
        n = len(ordered)
        side, blocks = checkerboard_tiling(n)
        # Grid entry (i, j) is ordered[(block_row(i) * blocks + block_col(j)) % n].
        # Filled in grid order, each set iterates as a grid row's or column's.
        rows = [frozenset(ordered[(r * blocks + c) % n] for c in range(blocks))
                for r in range(blocks)]
        columns = [frozenset(ordered[(r * blocks + c) % n] for r in range(blocks))
                   for c in range(blocks)]
        block = [min(position // side, blocks - 1) for position in range(n)]
        self._post_sets = {node: rows[block[k]] for k, node in enumerate(ordered)}
        self._query_sets = {node: columns[block[k]] for k, node in enumerate(ordered)}

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._post_sets[node]

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._query_sets[node]
