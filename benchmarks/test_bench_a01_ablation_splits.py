"""Ablation A1 — the post/query split and the frequency weighting (M3').

Two tunables the paper discusses but does not tabulate:

* the split parameter of the hypercube strategy (ε·d vs (1−ε)·d bits), which
  the paper suggests adapting "to take advantage of relative immobility of
  servers";
* the weighted cost m(i,j) = #P(i) + a·#Q(j) of equation (M3'), where a is
  the locate/post frequency ratio.

This ablation sweeps both and checks that the analytically optimal split
(p = √(a·n), q = √(n/a)) indeed minimises the weighted cost among the
realisable hypercube splits.
"""

from repro.analysis import optimal_split
from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import HypercubeStrategy
from repro.topologies import HypercubeTopology

DIMENSIONS = 8  # n = 256


def run_split_ablation():
    cube = HypercubeTopology(DIMENSIONS)
    n = cube.node_count
    rows = []
    for ratio in (0.25, 1.0, 4.0, 16.0):
        best = None
        for prefix_bits in range(0, DIMENSIONS + 1):
            post = 2 ** (DIMENSIONS - prefix_bits)
            query = 2**prefix_bits
            weighted = post + ratio * query
            if best is None or weighted < best["weighted"]:
                best = {
                    "prefix_bits": prefix_bits,
                    "post": post,
                    "query": query,
                    "weighted": weighted,
                }
        analytic = optimal_split(n, ratio=ratio)
        rows.append(
            {
                "ratio": ratio,
                "best_split": best,
                "analytic_post": analytic.post_size,
                "analytic_query": analytic.query_size,
                "analytic_weighted": analytic.weighted_cost,
            }
        )
    # Sanity: the balanced split's unweighted matrix really costs 2*sqrt(n).
    balanced = RendezvousMatrix.from_strategy(
        HypercubeStrategy(cube), cube.nodes()
    ).average_cost()
    return {"rows": rows, "balanced_cost": balanced, "n": n}


def test_bench_a01_split_and_weighting():
    results = run_split_ablation()
    n = results["n"]

    assert results["balanced_cost"] == 2 * n**0.5

    for row in results["rows"]:
        best = row["best_split"]
        # The realisable optimum is within a factor 2 of the analytic
        # continuous optimum (powers of two vs real numbers).
        assert best["weighted"] <= 2 * row["analytic_weighted"]
        # Skew follows the frequency ratio: frequent locates push work onto
        # posting (larger #P, smaller #Q) and vice versa.
        if row["ratio"] > 1:
            assert best["post"] >= best["query"]
        if row["ratio"] < 1:
            assert best["post"] <= best["query"]

    # More skew never helps the balanced case: the ratio=1 optimum is 2*sqrt(n).
    balanced_row = next(r for r in results["rows"] if r["ratio"] == 1.0)
    assert balanced_row["best_split"]["weighted"] == 2 * n**0.5
