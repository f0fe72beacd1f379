"""Ablation A3 — locality scopes for Hash Locate (§3.5 + §5).

The paper argues that in network hierarchies "nearly every service will be a
local service in some sense, with only few services being truly global", and
that scoping the locate work accordingly "balances the processing load more
or less evenly over the hosts at each level of the network hierarchy".

This ablation compares, on one hierarchy, (a) a flat global hash for every
service against (b) scoped hashing where 80% of services are cluster-local,
15% campus-wide and 5% global — measuring both the per-request cost and how
evenly the rendezvous load spreads.
"""

import statistics

from repro.core.matchmaker import MatchMaker
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import HashLocateStrategy, ScopedHashStrategy
from repro.topologies import HierarchicalTopology

ARITY, LEVELS = 4, 3  # 64 basic nodes


def build_ports():
    local = [Port(f"local-{i}") for i in range(16)]
    campus = [Port(f"campus-{i}") for i in range(3)]
    global_ports = [Port("mail-relay")]
    return local, campus, global_ports


def run_scoped_hash_ablation():
    topology = HierarchicalTopology.uniform(ARITY, LEVELS)
    local, campus, global_ports = build_ports()
    all_ports = local + campus + global_ports

    flat = HashLocateStrategy(topology.nodes(), replicas=1)
    scoped = ScopedHashStrategy(
        topology,
        scopes={
            **{port: 1 for port in local},
            **{port: 2 for port in campus},
            **{port: LEVELS for port in global_ports},
        },
    )

    results = {}
    for name, strategy in (("flat", flat), ("scoped", scoped)):
        network = Network(topology.graph, delivery_mode="unicast")
        matchmaker = MatchMaker(network, strategy)
        # One server per top-level branch for local ports (each branch runs
        # its own copy), a few campus servers, one global server.
        hops = []
        for port in local:
            for prefix_index in range(ARITY):
                cluster_node = (prefix_index, 0, 1)
                matchmaker.register_server(cluster_node, port,
                                           server_id=f"{port.name}@{cluster_node}")
                client = (prefix_index, 0, 2)
                result = matchmaker.locate(client, port)
                assert result.found
                hops.append(result.query_messages + result.reply_messages)
        for port in campus + global_ports:
            matchmaker.register_server((0, 1, 1), port)
            result = matchmaker.locate((0, 2, 3), port)
            assert result.found
            hops.append(result.query_messages + result.reply_messages)
        load = network.cache_sizes()
        loads = list(load.values())
        results[name] = {
            "mean_locate_hops": statistics.mean(hops),
            "max_cache": max(loads),
            "nonzero_caches": sum(1 for v in loads if v > 0),
        }
    return results


def test_bench_a03_scoped_vs_flat_hash():
    results = run_scoped_hash_ablation()

    flat, scoped = results["flat"], results["scoped"]
    # Scoping keeps local traffic local: locates travel fewer hops on
    # average than with a network-wide hash.
    assert scoped["mean_locate_hops"] <= flat["mean_locate_hops"]
    # The locate burden spreads over more hosts (every cluster serves its own
    # local ports) instead of piling onto the handful of globally hashed
    # rendezvous nodes.
    assert scoped["nonzero_caches"] >= flat["nonzero_caches"]
    assert scoped["max_cache"] <= flat["max_cache"] + 2
