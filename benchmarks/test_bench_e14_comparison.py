"""E14 — Sections 1.4 / 2.3: the whole range between centralized and
distributed name servers, on one topology, in one table.

The paper's qualitative comparison: the centralized server is cheapest but
fragile; broadcasting/sweeping are robust but cost Θ(n); the truly
distributed and topology-aware strategies sit at Θ(sqrt(n)) with balanced
load.  The benchmark measures all of them on a 8x8 Manhattan grid, including
routing overhead and cache pressure, and checks the ordering the paper
predicts.
"""

from repro.analysis import compare_strategies, comparison_table
from repro.core.types import Port
from repro.strategies import (
    ManhattanStrategy,
    SubgraphDecompositionStrategy,
    default_registry,
)
from repro.topologies import ManhattanTopology, decompose

PORT = Port("comparison-bench")
SIDE = 8


def run_comparison_experiment():
    topology = ManhattanTopology.square(SIDE)
    registry = default_registry()
    strategies = registry.create_all(
        topology.nodes(),
        only=["broadcast", "sweep", "centralized", "checkerboard", "hash-locate"],
    )
    strategies["manhattan"] = ManhattanStrategy(topology)
    strategies["subgraph"] = SubgraphDecompositionStrategy(decompose(topology.graph))
    comparisons = compare_strategies(
        topology, strategies, PORT, pair_count=30, seed=17
    )
    return comparison_table(comparisons)


def test_bench_e14_strategy_comparison():
    rows = run_comparison_experiment()
    by_name = {row["strategy"]: row for row in rows}
    n = SIDE * SIDE

    # Who wins on pure message count: centralized and hash (2 messages), then
    # the sqrt(n) strategies, then broadcast/sweep at n+1.
    assert by_name["centralized"]["m(n) theory"] == 2.0
    assert by_name["hash-locate"]["m(n) theory"] == 2.0
    for name in ("checkerboard", "manhattan"):
        assert 0.9 * 2 * n**0.5 <= by_name[name]["m(n) theory"] <= 1.3 * 2 * n**0.5
    assert by_name["broadcast"]["m(n) theory"] == n + 1
    assert by_name["sweep"]["m(n) theory"] == n + 1

    # ... but the cheap ones are the fragile ones.
    assert not by_name["centralized"]["distributed"]
    assert not by_name["hash-locate"]["distributed"]
    for name in ("checkerboard", "manhattan", "broadcast", "sweep", "subgraph"):
        assert by_name[name]["distributed"], name

    # The generic subgraph-decomposition strategy addresses ~sqrt(n) nodes on
    # each side too (its extra cost is routing across blocks, visible in the
    # measured hops below, not in the addressed-node count).
    assert 1.5 * n**0.5 <= by_name["subgraph"]["m(n) theory"] <= 4 * n**0.5
    assert (
        by_name["subgraph"]["hops measured"]
        >= by_name["manhattan"]["hops measured"]
    )

    # Measured hops include routing overhead.  On the grid the corner-hosted
    # central server pays long routes, so its advantage over the sqrt(n)
    # strategies shrinks to a wash, but the Θ(n) strategies remain clearly
    # the most expensive — the crossover the paper's comparison predicts.
    assert (
        by_name["centralized"]["hops measured"]
        < by_name["broadcast"]["hops measured"]
    )
    assert (
        by_name["manhattan"]["hops measured"]
        < 0.5 * by_name["broadcast"]["hops measured"]
    )

    # Cache pressure: broadcast needs almost nothing anywhere, the
    # centralized/hash node holds everything.
    assert by_name["broadcast"]["max cache"] <= 2
    assert by_name["centralized"]["max cache"] == n
