"""E7 — Section 3.3: cube-connected cycles.

The tuned subcube strategy on CCC networks: m(n) ∈ O(sqrt(n·log n)) and cache
load O(sqrt(n/log n)); both are measured across CCC orders and compared with
the paper's asymptotic forms.
"""

import math
import random

from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import CubeConnectedCyclesStrategy
from repro.topologies import CubeConnectedCyclesTopology

PORT = Port("ccc-bench")


def run_ccc_experiment():
    rows = []
    rng = random.Random(11)
    for d in (3, 4, 5):
        topo = CubeConnectedCyclesTopology(d)
        strategy = CubeConnectedCyclesStrategy(topo)
        nodes = topo.nodes()
        n = topo.node_count
        post_size, query_size = strategy.expected_costs()

        network = Network(topo.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, strategy)
        for node in nodes:
            matchmaker.register_server(node, PORT, server_id=f"s@{node}")
        max_cache = network.max_cache_size()

        sample = rng.sample(nodes, min(12, len(nodes)))
        matrix = RendezvousMatrix.from_strategy(strategy, nodes)
        rows.append(
            {
                "d": d,
                "n": n,
                "addressed": post_size + query_size,
                "sqrt_n_log_n": math.sqrt(n * d),
                "max_cache": max_cache,
                "sqrt_n_over_log_n": math.sqrt(n / d),
                "total": matrix.is_total(),
            }
        )
    return rows


def test_bench_e07_cube_connected_cycles():
    rows = run_ccc_experiment()

    for row in rows:
        assert row["total"]
        # m(n) within a small constant of sqrt(n log n) ...
        assert row["addressed"] <= 2.5 * row["sqrt_n_log_n"]
        # ... and well below the flat-network broadcast cost n.
        assert row["addressed"] < row["n"]
        # Cache load within a small constant of sqrt(n / log n).
        assert row["max_cache"] <= 3 * row["sqrt_n_over_log_n"] + 1

    # The cost grows with n but sublinearly.
    ns = [row["n"] for row in rows]
    costs = [row["addressed"] for row in rows]
    assert costs[-1] / costs[0] < ns[-1] / ns[0]
