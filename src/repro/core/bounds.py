"""Lower and upper bounds on match-making cost (Propositions 1-4).

This module contains the paper's combinatorial theory:

* **Proposition 1** — for any rendezvous matrix with multiplicities ``k_i``,
  ``ΣΣ #P(i)·#Q(j) ≥ (Σ_i sqrt(k_i))²``.
* **Proposition 2** — consequently the average number of message passes
  satisfies ``m(n) ≥ (2/n)·Σ_i sqrt(k_i)``.
* **Corollaries** — truly distributed (``k_i = n`` for all i) gives
  ``m(n) ≥ 2·sqrt(n)``; centralized (one node with ``k = n²``) gives
  ``m(n) ≥ 2``.
* **Proposition 3** — the checkerboard construction achieves
  ``#P(i)·#Q(j) ≈ n`` and ``#P(i)+#Q(j) ≈ 2·sqrt(n)`` with ``k_i ≈ n``.
* **Proposition 4** — a strategy for ``n`` nodes lifts to ``4n`` nodes with
  ``m'(4n) = 2·m(n)``.

Functions either *compute* a bound from the ``k_i`` or *verify* that a
concrete :class:`~repro.core.rendezvous.RendezvousMatrix` satisfies it.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Mapping, Sequence, Tuple

from .rendezvous import RendezvousMatrix


# ---------------------------------------------------------------------------
# Lower bounds (Propositions 1 and 2 and their corollaries)
# ---------------------------------------------------------------------------


def sum_sqrt_multiplicities(multiplicities: Iterable[int]) -> float:
    """``Σ_i sqrt(k_i)`` over the given multiplicities."""
    total = 0.0
    for k in multiplicities:
        if k < 0:
            raise ValueError("multiplicities must be non-negative")
        total += math.sqrt(k)
    return total


def proposition1_bound(multiplicities: Iterable[int]) -> float:
    """The Proposition 1 lower bound on ``ΣΣ #P(i)·#Q(j)``:
    ``(Σ sqrt(k_i))²``."""
    return sum_sqrt_multiplicities(multiplicities) ** 2


def proposition2_bound(multiplicities: Iterable[int], n: int) -> float:
    """The Proposition 2 lower bound on the average message passes ``m(n)``:
    ``(2/n)·Σ sqrt(k_i)``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return (2.0 / n) * sum_sqrt_multiplicities(multiplicities)


def average_product_bound(multiplicities: Iterable[int], n: int) -> float:
    """Lower bound on ``(1/n²)·ΣΣ #P(i)·#Q(j)`` (Proposition 1 divided by
    n²)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return proposition1_bound(multiplicities) / (n * n)


def most_inefficient_cost(n: int) -> int:
    """``m(n)`` of the most inefficient strategy ``P(i) = Q(j) = U``:
    ``2n``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return 2 * n


def verify_proposition1(matrix: RendezvousMatrix) -> Tuple[float, float]:
    """Return ``(measured, bound)`` for Proposition 1 on ``matrix``.

    ``measured`` is ``(1/n²)ΣΣ #P·#Q`` and ``bound`` its proposition-1 lower
    bound; the caller asserts ``measured ≥ bound`` (up to float slack).
    """
    multiplicities = list(matrix.multiplicities().values())
    measured = matrix.average_product()
    bound = average_product_bound(multiplicities, matrix.n)
    return measured, bound


def verify_proposition2(matrix: RendezvousMatrix) -> Tuple[float, float]:
    """Return ``(measured m(n), bound)`` for Proposition 2 on ``matrix``."""
    multiplicities = list(matrix.multiplicities().values())
    measured = matrix.average_cost()
    bound = proposition2_bound(multiplicities, matrix.n)
    return measured, bound


# ---------------------------------------------------------------------------
# Upper bounds (Propositions 3 and 4)
# ---------------------------------------------------------------------------


def checkerboard_tiling(n: int) -> Tuple[int, int]:
    """Block side and blocks per side of the Proposition 3 ``n × n`` tiling."""
    side = max(1, int(round(math.sqrt(n))))
    return side, math.ceil(n / side)


def checkerboard_grid(nodes: Sequence[Hashable]) -> List[List[Hashable]]:
    """The Proposition 3 checkerboard rendezvous grid for ``nodes``.

    The ``n × n`` matrix is tiled with (as near as possible) ``sqrt(n) ×
    sqrt(n)`` blocks of roughly ``n`` entries, each filled with one distinct
    node (cf. Example 4).  Returns the grid of single rendezvous nodes with
    rows/columns indexed by position in ``nodes``.
    """
    nodes = list(nodes)
    n = len(nodes)
    if n == 0:
        return []
    side, blocks_per_side = checkerboard_tiling(n)

    grid: List[List[Hashable]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            block_row = min(i // side, blocks_per_side - 1)
            block_col = min(j // side, blocks_per_side - 1)
            block_index = block_row * blocks_per_side + block_col
            grid[i][j] = nodes[block_index % n]
    return grid


def checkerboard_matrix(nodes: Sequence[Hashable]) -> RendezvousMatrix:
    """The Proposition 3 construction as a :class:`RendezvousMatrix`."""
    nodes = list(nodes)
    grid = checkerboard_grid(nodes)
    return RendezvousMatrix.from_singleton_grid(
        grid, nodes=nodes, strategy_name="checkerboard"
    )


def lift_grid(
    grid: Sequence[Sequence[Hashable]],
    node_copies: Mapping[Hashable, Sequence[Hashable]],
) -> List[List[Hashable]]:
    """The Proposition 4 lift of a singleton rendezvous grid to 4n nodes.

    Every entry ``r_ij`` of the original grid is replaced by a 2×2 block of
    copies of ``r_ij`` (producing a 2n×2n matrix ``M``) and the final 4n×4n
    matrix consists of four pairwise node-disjoint isomorphic copies of
    ``M`` on its 2×2 block diagonal layout.

    ``node_copies[v]`` must list the four distinct replacement nodes for the
    original node ``v`` — one per copy of ``M``.  In the paper's terms the
    new multiplicities are ``k'_{v_c} = 4·k_v`` and the average cost doubles.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("grid must be square")
    for node, copies in node_copies.items():
        if len(set(copies)) != 4:
            raise ValueError(f"node {node!r} needs exactly 4 distinct copies")

    size = 4 * n
    lifted: List[List[Hashable]] = [[None] * size for _ in range(size)]
    for quadrant in range(4):
        # Quadrants are laid out 2×2: which rows/columns of the big matrix
        # this copy of M occupies.
        row_offset = (quadrant // 2) * 2 * n
        col_offset = (quadrant % 2) * 2 * n
        for i in range(n):
            for j in range(n):
                replacement = node_copies[grid[i][j]][quadrant]
                for di in range(2):
                    for dj in range(2):
                        lifted[row_offset + 2 * i + di][
                            col_offset + 2 * j + dj
                        ] = replacement
    return lifted


def lift_matrix(matrix: RendezvousMatrix) -> RendezvousMatrix:
    """Apply :func:`lift_grid` to a singleton-entry matrix.

    The 4n node universe consists of tuples ``(original_node, copy_index)``
    for ``copy_index`` in 0..3, and the new row/column universe is the same
    set (so the lifted matrix is again square over its own universe).
    """
    grid = matrix.singleton_grid()
    nodes = matrix.nodes
    node_copies = {node: [(node, c) for c in range(4)] for node in nodes}
    lifted_grid = lift_grid(grid, node_copies)
    # lift_grid lays the four copies of M out 2×2, so the top half of the
    # rows belongs to copies 0/1 and the bottom half to copies 2/3; label the
    # 4n rows/columns accordingly so every (node, copy) pair appears once.
    row_nodes: List[Hashable] = []
    n = len(nodes)
    for half in range(2):  # top half then bottom half of the 4n rows
        for i in range(n):
            for duplicate in range(2):
                row_nodes.append((nodes[i], 2 * half + duplicate))
    return RendezvousMatrix.from_singleton_grid(
        lifted_grid, nodes=row_nodes, strategy_name=f"lift({matrix.strategy_name})"
    )
