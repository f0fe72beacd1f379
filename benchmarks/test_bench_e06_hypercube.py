"""E6 — Section 3.2: multidimensional binary cubes.

The d/2-subcube strategy gives a single rendezvous node per pair and
m(n) = 2*sqrt(n) addressed nodes; measured hops on the real cube include the
routing overhead of reaching the subcube.  Unbalanced eps·d splits trade
posting against querying exactly as the paper describes.
"""

import math
import random

from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import HypercubeStrategy
from repro.topologies import HypercubeTopology

PORT = Port("hypercube-bench")


def run_hypercube_experiment():
    results = {"balanced": [], "splits": []}
    rng = random.Random(7)

    for d in (4, 6, 8):
        cube = HypercubeTopology(d)
        strategy = HypercubeStrategy(cube)
        matrix_nodes = cube.nodes()
        matrix = RendezvousMatrix.from_strategy(strategy, matrix_nodes)
        network = Network(cube.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, strategy)
        hops = []
        for _ in range(20):
            server, client = rng.choice(matrix_nodes), rng.choice(matrix_nodes)
            hops.append(matchmaker.match_instance(server, client, PORT).match_messages)
        results["balanced"].append(
            {
                "d": d,
                "n": cube.node_count,
                "m(n)": matrix.average_cost(),
                "optimum": 2 * math.sqrt(cube.node_count),
                "mean_hops": sum(hops) / len(hops),
                "single_rendezvous": all(
                    len(matrix.entry(s, c)) == 1
                    for s in matrix_nodes[:8]
                    for c in matrix_nodes[:8]
                ),
            }
        )

    cube = HypercubeTopology(6)
    for prefix_bits in (1, 2, 3, 4, 5):
        strategy = HypercubeStrategy(cube, server_prefix_bits=prefix_bits)
        results["splits"].append(
            {
                "prefix_bits": prefix_bits,
                "post": 2 ** (6 - prefix_bits),
                "query": 2**prefix_bits,
                "total": strategy.addressed_nodes(),
            }
        )
    return results


def test_bench_e06_multidimensional_cubes():
    results = run_hypercube_experiment()

    for row in results["balanced"]:
        # m(n) = 2*sqrt(n) for even d; routing overhead keeps measured hops
        # within a small factor of the addressed-node count.
        assert row["m(n)"] == row["optimum"]
        assert row["single_rendezvous"]
        assert row["mean_hops"] <= 3 * row["optimum"]

    # The balanced split minimises the total over all eps splits.
    totals = {row["prefix_bits"]: row["total"] for row in results["splits"]}
    assert min(totals.values()) == totals[3] == 16
    assert totals[1] == 32 + 2 and totals[5] == 2 + 32
