"""E13 — Section 2.4: robustness, fault tolerance and its price.

The two robustness criteria (distribution, f+1-redundancy), measured survival
of match-making under random crashes for the paper's strategies, the ring
network's Ω(n) floor, and the price of redundancy in message passes.
"""

import random

from repro.core import robustness
from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.strategy import FunctionalStrategy
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    HashLocateStrategy,
)
from repro.topologies import CompleteTopology, RingTopology

N = 36
PORT = Port("robustness-bench")


def survival_rate(topology, strategy, crash_count, trials, seed):
    """Fraction of (server, client) matches that succeed after random
    crashes."""
    rng = random.Random(seed)
    nodes = topology.nodes()
    successes = 0
    for _ in range(trials):
        network = Network(topology.graph, delivery_mode="ideal")
        matchmaker = MatchMaker(network, strategy)
        server, client = rng.sample(nodes, 2)
        matchmaker.register_server(server, PORT)
        candidates = [n for n in nodes if n not in (server, client)]
        for victim in rng.sample(candidates, crash_count):
            network.crash_node(victim)
        successes += matchmaker.locate(client, PORT).found
    return successes / trials


def run_robustness_experiment():
    topology = CompleteTopology(N)
    universe = topology.nodes()
    results = {"classification": {}, "survival": {}}

    strategies = {
        "centralized": CentralizedStrategy(universe, centre=0),
        "checkerboard": CheckerboardStrategy(universe),
        "broadcast": BroadcastStrategy(universe),
        "hash-1": HashLocateStrategy(universe, replicas=1),
        "redundant-3": FunctionalStrategy(
            post=lambda i: {0, 1, 2, i},
            query=lambda j: {0, 1, 2, j},
            name="redundant-3",
        ),
    }
    for name, strategy in strategies.items():
        matrix = RendezvousMatrix.from_strategy(strategy, universe, port=PORT)
        report = robustness.analyse(matrix)
        price = robustness.redundancy_price(matrix)
        results["classification"][name] = {
            "distributed": report.is_distributed,
            "fault_tolerance": report.fault_tolerance,
            "m(n)": price["average_cost"],
            "overhead": price["overhead_ratio"],
        }

    for name in ("centralized", "checkerboard", "broadcast", "redundant-3"):
        results["survival"][name] = survival_rate(
            topology, strategies[name], crash_count=3, trials=30, seed=5
        )

    # Targeted crash of the centralized server's host: the whole network
    # loses its name service, while the checkerboard only loses the 1/n of
    # pairs whose single rendezvous node that happened to be.
    results["targeted"] = {
        name: robustness.surviving_pairs_fraction(
            RendezvousMatrix.from_strategy(strategies[name], universe, port=PORT),
            crashed=[0],
        )
        for name in ("centralized", "checkerboard")
    }

    # Ring network: even the best strategy costs Ω(n) hops because routing to
    # any sqrt(n)-sized rendezvous set crosses a constant fraction of the
    # ring.
    ring = RingTopology(32)
    ring_network = Network(ring.graph, delivery_mode="multicast")
    ring_mm = MatchMaker(ring_network, CheckerboardStrategy(ring.nodes()))
    ring_hops = ring_mm.match_instance(0, 16, PORT).match_messages
    flood_hops = ring.node_count - 1
    results["ring"] = {"hops": ring_hops, "broadcast_hops": flood_hops}

    return results


def test_bench_e13_robustness():
    results = run_robustness_experiment()

    classification = results["classification"]
    # The centralized server and single-replica Hash Locate are the
    # strategies a single crash can take out globally; the checkerboard,
    # broadcast and the 3-anchor redundant strategy all survive any single
    # crash somewhere.
    assert not classification["centralized"]["distributed"]
    assert not classification["hash-1"]["distributed"]
    for name in ("checkerboard", "broadcast", "redundant-3"):
        assert classification[name]["distributed"], name
    # f+1 redundancy: every pair of the redundant strategy shares the three
    # anchor nodes, so it tolerates f = 2 crashes; the singleton-rendezvous
    # strategies tolerate none.
    assert classification["redundant-3"]["fault_tolerance"] == 2
    assert classification["checkerboard"]["fault_tolerance"] == 0
    # Robustness has a price in message passes: guaranteeing three live
    # anchors costs roughly (f+1) times the single-anchor (centralized)
    # minimum of 2 messages per match.
    assert (
        classification["redundant-3"]["m(n)"]
        >= 3 * classification["centralized"]["m(n)"]
    )

    survival = results["survival"]
    # Broadcasting always survives (the rendezvous is the server itself);
    # the redundant strategy survives 3 random crashes because they would all
    # have to hit its three anchors; the checkerboard survives most; the
    # centralized server is the worst.
    assert survival["broadcast"] == 1.0
    assert survival["redundant-3"] == 1.0
    assert survival["checkerboard"] >= 0.8
    # Against a targeted crash of the well-known node, the centralized
    # server collapses completely while the checkerboard barely notices.
    assert results["targeted"]["centralized"] == 0.0
    assert results["targeted"]["checkerboard"] >= 0.9

    # Ring: no strategy beats the broadcast order of magnitude.
    assert results["ring"]["hops"] >= results["ring"]["broadcast_hops"] / 4
