"""Summary statistics of rendezvous matrices.

Turns a :class:`~repro.core.rendezvous.RendezvousMatrix` into a flat summary
row combining the paper's quantities: the average/min/max cost, the
Proposition 1/2 lower bounds, load balance of the ``k_i`` and the robustness
classification — the columns of the strategy-comparison tables the
experiments print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core import bounds, robustness
from ..core.rendezvous import RendezvousMatrix


@dataclass(frozen=True)
class MatrixSummary:
    """One comparison-table row describing a strategy's matrix."""

    strategy: str
    n: int
    average_cost: float
    min_cost: int
    max_cost: int
    lower_bound: float
    average_post_size: float
    average_query_size: float
    load_imbalance: float
    unused_nodes: int
    fault_tolerance: int
    is_distributed: bool
    is_total: bool

    @property
    def optimality_ratio(self) -> float:
        """Measured cost over its own Proposition 2 lower bound (≥ 1)."""
        if self.lower_bound == 0:
            return float("inf")
        return self.average_cost / self.lower_bound


def summarize(matrix: RendezvousMatrix, name: Optional[str] = None) -> MatrixSummary:
    """Build a :class:`MatrixSummary` for a matrix."""
    multiplicities = list(matrix.multiplicities().values())
    balance = matrix.load_balance()
    report = robustness.analyse(matrix)
    n = matrix.n
    average_post = (
        sum(len(matrix.post_set(node)) for node in matrix.nodes) / n
    )
    average_query = (
        sum(len(matrix.query_set(node)) for node in matrix.nodes) / n
    )
    return MatrixSummary(
        strategy=name or matrix.strategy_name or "unnamed",
        n=n,
        average_cost=matrix.average_cost(),
        min_cost=matrix.min_cost(),
        max_cost=matrix.max_cost(),
        lower_bound=bounds.proposition2_bound(multiplicities, n),
        average_post_size=average_post,
        average_query_size=average_query,
        load_imbalance=balance["imbalance"],
        unused_nodes=int(balance["unused_nodes"]),
        fault_tolerance=report.fault_tolerance,
        is_distributed=report.is_distributed,
        is_total=matrix.is_total(),
    )


def summary_as_dict(summary: MatrixSummary) -> Dict[str, object]:
    """The summary as a plain dict (for table formatting / JSON dumps)."""
    return {
        "strategy": summary.strategy,
        "n": summary.n,
        "m(n)": round(summary.average_cost, 3),
        "min": summary.min_cost,
        "max": summary.max_cost,
        "bound": round(summary.lower_bound, 3),
        "opt-ratio": round(summary.optimality_ratio, 3),
        "avg #P": round(summary.average_post_size, 3),
        "avg #Q": round(summary.average_query_size, 3),
        "imbalance": round(summary.load_imbalance, 3),
        "unused": summary.unused_nodes,
        "f": summary.fault_tolerance,
        "distributed": summary.is_distributed,
        "total": summary.is_total,
    }
