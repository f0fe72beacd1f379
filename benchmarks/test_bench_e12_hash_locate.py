"""E12 — Section 5: Hash Locate.

Two-message matches (one node posted, one node queried), load spread over the
network under a well-chosen hash, fragility to rendezvous-node crashes, and
the two repairs the paper proposes: replication and rehashing.
"""

import statistics

from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import HashLocateStrategy, RehashingLocator
from repro.topologies import CompleteTopology

N = 100
PORTS = [Port(f"service-{i}") for i in range(200)]


def run_hash_locate_experiment():
    topology = CompleteTopology(N)
    universe = topology.nodes()
    results = {}

    # Cost: P = Q = one node per port, so every match addresses 2 nodes.
    strategy = HashLocateStrategy(universe, replicas=1)
    matrix = RendezvousMatrix.from_strategy(strategy, universe, port=PORTS[0])
    results["cost"] = {
        "m(n)": matrix.average_cost(),
        "is_total": matrix.is_total(),
    }

    # Load distribution over many ports.
    load = strategy.load_distribution(PORTS)
    results["load"] = {
        "ports": len(PORTS),
        "max": max(load.values()),
        "mean": statistics.mean(load.values()),
        "nodes_used": sum(1 for v in load.values() if v > 0),
    }

    # Fragility: crash the port's single rendezvous node -> every client
    # fails, even though the server is alive.
    network = Network(topology.graph, delivery_mode="ideal")
    matchmaker = MatchMaker(network, strategy)
    matchmaker.register_server(7, PORTS[0])
    victim = next(iter(strategy.rendezvous_nodes(PORTS[0])))
    before = matchmaker.locate(50, PORTS[0]).found
    network.crash_node(victim)
    after = matchmaker.locate(50, PORTS[0]).found
    results["fragility"] = {"before": before, "after": after}

    # Repair 1: replication.
    replicated = HashLocateStrategy(universe, replicas=3)
    replica_network = Network(topology.graph, delivery_mode="ideal")
    replica_mm = MatchMaker(replica_network, replicated)
    replica_mm.register_server(7, PORTS[0])
    for node in list(replicated.rendezvous_nodes(PORTS[0]))[:2]:
        replica_network.crash_node(node)
    results["replication_survives"] = replica_mm.locate(50, PORTS[0]).found

    # Repair 2: rehashing.
    rehash_network = Network(topology.graph, delivery_mode="ideal")
    locator = RehashingLocator(
        rehash_network, HashLocateStrategy(universe, replicas=1), max_rehash_attempts=3
    )
    locator.register_server(7, PORTS[0])
    rehash_network.crash_node(next(iter(strategy.rendezvous_nodes(PORTS[0]))))
    found_record, attempts = locator.locate(50, PORTS[0])
    results["rehash"] = {"found": found_record is not None, "attempts": attempts}

    return results


def test_bench_e12_hash_locate():
    results = run_hash_locate_experiment()

    # Two message passes per match: the cheapest possible, like the
    # centralized server but port-spread.
    assert results["cost"]["m(n)"] == 2.0
    assert results["cost"]["is_total"]

    # A well-chosen hash spreads the locate burden over the network: many
    # nodes used, no node hoards the ports.
    load = results["load"]
    assert load["nodes_used"] >= N // 2
    assert load["max"] <= 6 * load["mean"]

    # Fragility and its two repairs.
    assert results["fragility"]["before"]
    assert not results["fragility"]["after"]
    assert results["replication_survives"]
    assert results["rehash"]["found"]
    assert results["rehash"]["attempts"] >= 1
