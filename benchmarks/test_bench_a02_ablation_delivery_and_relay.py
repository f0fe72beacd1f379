"""Ablation A2 — delivery modes and Valiant's two-phase random relay.

Two implementation choices the paper touches on but does not tabulate:

* how posting/query messages are delivered (the complete-network "ideal"
  accounting of §2 vs per-destination unicast vs spanning-tree multicast of
  §2.3.5) — multicast should never cost more than unicast and should equal
  the addressed-node count when the addressed set is connected;
* §3.2's remark that "excessive clogging at intermediate nodes may be
  prevented by sending messages to a random address first" — the relay
  roughly doubles total hops but flattens the per-node hotspot.
"""

from repro.core.matchmaker import MatchMaker
from repro.core.types import Port
from repro.network.relay import compare_direct_vs_relay
from repro.network.simulator import Network
from repro.strategies import ManhattanStrategy
from repro.topologies import HypercubeTopology, ManhattanTopology

PORT = Port("ablation-delivery")
SIDE = 7


def run_delivery_ablation():
    results = {"delivery": {}, "relay": {}}
    grid = ManhattanTopology.square(SIDE)
    strategy = ManhattanStrategy(grid)
    for mode in ("ideal", "unicast", "multicast"):
        network = Network(grid.graph, delivery_mode=mode)
        matchmaker = MatchMaker(network, strategy)
        hops = [
            matchmaker.match_instance(server, client, PORT).match_messages
            for server, client in (
                ((0, 0), (6, 6)),
                ((3, 3), (0, 6)),
                ((6, 0), (3, 2)),
                ((2, 5), (5, 1)),
            )
        ]
        results["delivery"][mode] = sum(hops) / len(hops)

    cube = HypercubeTopology(6)
    pairs = [(node, "111111") for node in cube.nodes() if node != "111111"]
    results["relay"] = {
        name: {
            "total_hops": report.total_hops,
            "hotspot_ratio": report.hotspot_ratio,
            "max_node_load": report.max_node_load,
        }
        for name, report in compare_direct_vs_relay(cube.graph, pairs, seed=2).items()
    }
    return results


def test_bench_a02_delivery_modes_and_relay():
    results = run_delivery_ablation()

    delivery = results["delivery"]
    # Ideal (complete-network accounting) is the cheapest; spanning-tree
    # multicast never costs more than per-destination unicast; on the grid the
    # row/column sets are connected so multicast equals the addressed-node
    # count (2*(side-1) hops beyond the two endpoints).
    assert delivery["ideal"] <= delivery["multicast"] <= delivery["unicast"]
    assert delivery["ideal"] == 2 * (SIDE - 1)
    assert delivery["multicast"] == 2 * (SIDE - 1)

    relay = results["relay"]
    # The relay pays more hops overall ...
    assert relay["relay"]["total_hops"] >= relay["direct"]["total_hops"]
    assert relay["relay"]["total_hops"] <= 2.5 * relay["direct"]["total_hops"]
    # ... but removes the funnel hotspot next to the common destination.
    assert relay["relay"]["hotspot_ratio"] <= relay["direct"]["hotspot_ratio"]
    assert relay["relay"]["max_node_load"] <= relay["direct"]["max_node_load"]
