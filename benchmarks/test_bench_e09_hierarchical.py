"""E9 — Section 3.5: hierarchical (gateway) networks.

Level-by-level locate: m(n) ∈ O(Σ_i sqrt(n_i)); for fixed n the cost falls
as the number of levels grows, approaching O(log n) at k = ½·log n levels,
while caches towards the top of the hierarchy grow.
"""

import math

from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import CheckerboardStrategy, HierarchicalGatewayStrategy
from repro.topologies import HierarchicalTopology

PORT = Port("hier-bench")

#: Configurations with the same total size n = 64 but different depths.
CONFIGURATIONS = ((64, 1), (8, 2), (4, 3), (2, 6))


def run_hierarchical_experiment():
    rows = []
    for arity, levels in CONFIGURATIONS:
        topology = HierarchicalTopology.uniform(arity, levels)
        strategy = HierarchicalGatewayStrategy(topology)
        matrix = RendezvousMatrix.from_strategy(strategy, topology.nodes())
        network = Network(topology.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, strategy)
        for node in topology.nodes():
            matchmaker.register_server(node, PORT, server_id=f"s@{node}")
        rows.append(
            {
                "arity": arity,
                "levels": levels,
                "n": topology.node_count,
                "m(n)": matrix.average_cost(),
                "flat_optimum": 2 * math.sqrt(topology.node_count),
                "sum_sqrt_ni": sum(2 * math.sqrt(arity) for _ in range(levels)),
                "max_cache": network.max_cache_size(),
                "total": matrix.is_total(),
            }
        )
    return rows


def test_bench_e09_hierarchical_networks():
    rows = run_hierarchical_experiment()

    for row in rows:
        assert row["total"]
        assert row["n"] == 64
        # Per-level cost bounded by the paper's sum of 2*sqrt(n_i) terms.
        assert row["m(n)"] <= row["sum_sqrt_ni"] + 1e-9

    flat = rows[0]
    deepest = rows[-1]
    # One level = the flat truly distributed solution at 2*sqrt(n); deeper
    # hierarchies are strictly cheaper, heading towards O(log n).
    assert flat["m(n)"] == flat["flat_optimum"]
    assert deepest["m(n)"] < flat["m(n)"]
    assert deepest["m(n)"] <= 3 * math.log2(deepest["n"])
    # Deeper hierarchies concentrate load near the top: the largest cache
    # grows with depth.
    assert deepest["max_cache"] >= flat["max_cache"]
    # Costs decrease monotonically with depth for fixed n.
    costs = [row["m(n)"] for row in rows]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
