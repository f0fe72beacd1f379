"""E10 — Section 3.6: organically grown networks (UUCPnet) and tree depth.

Reproduces the paper's UUCPnet degree Table (the legible rows), compares a
synthetic 1916-site network against its shape, verifies the tree-depth
formulas for the factorial and exponential degree profiles, and measures the
path-to-root name server's O(l) cost and core-heavy caches.
"""

import statistics

from repro.analysis import (
    PAPER_TOTAL_EDGES,
    PAPER_TOTAL_SITES,
    depth_halving_ratio,
    graph_profile,
    observe_exponential_trees,
    observe_factorial_trees,
    paper_profile,
    shape_similarity,
)
from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import TreePathStrategy
from repro.topologies import UUCPNetworkGenerator

PORT = Port("uucp-bench")
SYNTHETIC_SITES = 800  # large enough for the shape, small enough to be quick


def run_uucp_experiment():
    results = {}

    # The paper's measured table.
    paper = paper_profile()
    results["paper"] = {
        "sites": paper.site_count,
        "edges": paper.edge_estimate,
        "terminal_fraction": paper.terminal_fraction,
        "max_degree": paper.max_degree,
    }

    # A synthetic organically-grown network with the same qualitative shape.
    topo = UUCPNetworkGenerator(preferential_bias=6.0).generate(
        SYNTHETIC_SITES, seed=1984
    )
    ours = graph_profile(topo.graph)
    results["synthetic"] = {
        "sites": ours.site_count,
        "terminal_fraction": ours.terminal_fraction,
        "max_degree": ours.max_degree,
        "heavy_tailed": ours.is_heavy_tailed,
        "differences": shape_similarity(ours, paper),
    }

    # Tree-depth formulas.
    results["factorial_depths"] = observe_factorial_trees([3, 4, 5], eps=0.0)
    results["exponential_depths"] = observe_exponential_trees([3, 4], eps=1.0)
    results["halving_ratio"] = depth_halving_ratio(2**24, eps=0.5, factor=4.0)

    # Path-to-root name service on the synthetic network.
    strategy = TreePathStrategy(topo)
    matrix = RendezvousMatrix.from_strategy(
        strategy, topo.graph.nodes[: min(200, topo.node_count)]
    )
    network = Network(topo.graph, delivery_mode="unicast")
    matchmaker = MatchMaker(network, strategy)
    for node in topo.graph.nodes[7::37][:30]:
        matchmaker.register_server(node, PORT, server_id=f"s@{node}")
    depths = [len(topo.path_to_root(node)) - 1 for node in topo.graph.nodes]
    cache_sizes = network.cache_sizes()
    results["name_service"] = {
        "m(n)_addressed": matrix.average_cost(),
        "max_depth": max(depths),
        "mean_depth": statistics.mean(depths),
        "core_cache": cache_sizes[topo.root],
        "median_cache": statistics.median(cache_sizes.values()),
    }
    return results


def test_bench_e10_uucp_and_trees():
    results = run_uucp_experiment()

    paper = results["paper"]
    # The legible table rows cover nearly all of the 1916 sites / 3848 edges.
    assert paper["sites"] >= 0.97 * PAPER_TOTAL_SITES
    assert paper["edges"] >= 0.9 * PAPER_TOTAL_EDGES
    assert paper["max_degree"] == 641

    synthetic = results["synthetic"]
    # Synthetic network has the paper's qualitative shape: dominated by
    # terminal sites, heavy-tailed towards a backbone.
    assert synthetic["heavy_tailed"]
    assert synthetic["differences"]["terminal_fraction"] < 0.15
    assert synthetic["differences"]["mean_degree"] < 1.0

    # Depth formulas: constructed depth close to prediction, and quadrupling
    # the exponential parameter halves the depth.
    for obs in results["factorial_depths"]:
        assert obs.predicted_depth > 0
    for obs in results["exponential_depths"]:
        assert obs.relative_error < 1.0
    assert abs(results["halving_ratio"] - 2.0) < 0.05

    # Path-to-root name service: O(depth) cost, caches concentrated at the
    # core.
    service = results["name_service"]
    assert service["m(n)_addressed"] <= 2 * (service["max_depth"] + 1)
    assert service["core_cache"] >= service["median_cache"]
    assert service["core_cache"] >= 10
