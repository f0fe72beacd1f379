"""E16 — the delivery planner on a faulted unicast workload.

The headline bugfix of the planner PR: unicast delivery under faults used
to construct a fresh ``RoutingTable`` over the surviving subgraph *per
message* — an O(n²) Python cost to account for a single message on the
dominant post/query traffic class.  This benchmark drives a faulted message
stream through the planner and asserts that it serves the stream from its
caches (hop-for-hop parity of the same stream with an independent pricer
is ``test_a_thousand_message_faulted_stream_matches_the_oracle`` in
``tests/unit/test_delivery_planner.py``), and exercises a churny unicast
workload end-to-end (exact headline numbers, plan-cache effectiveness,
byte-identical run/replay).  Nothing is timed: what faulted unicast
delivery costs is the ledger's ``faulted_churn`` workload
(``benchmarks/ledger``).
"""

import json
import random

from repro.network.simulator import Network
from repro.network.stats import POST
from repro.strategies import ManhattanStrategy
from repro.topologies import ManhattanTopology
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    PopularitySpec,
    ScenarioSpec,
    replay_trace,
)
from repro.workload.driver import WorkloadDriver

#: Messages in the naive-vs-planner parity stream.
MESSAGES = 1_000
#: Requests in the end-to-end faulted workload.
OPERATIONS = 6_000


def faulted_message_stream():
    """A matchmaker-shaped unicast stream on a faulted 64-node grid.

    8 "server" nodes repeatedly post to their P sets and 64 "client"
    nodes repeatedly query their Q sets — the traffic mix whose routing
    the planner memoizes.  Two nodes are crashed, so every delivery runs
    under an active fault plan.
    """
    topology = ManhattanTopology.square(8)
    strategy = ManhattanStrategy(topology)
    nodes = sorted(topology.nodes())
    rng = random.Random(16)
    servers = rng.sample(nodes, 8)
    stream = []
    for i in range(MESSAGES):
        if i % 8 == 0:
            source = servers[(i // 8) % len(servers)]
            stream.append((source, strategy.post_set(source)))
        else:
            source = nodes[rng.randrange(len(nodes))]
            stream.append((source, strategy.query_set(source)))
    crashed = [(3, 3), (6, 1)]
    return topology, stream, crashed


def run_planned(topology, stream, crashed):
    """The stream through ``Network.deliver`` and the planner."""
    network = Network(topology.graph, delivery_mode="unicast")
    for node in crashed:
        network.crash_node(node)
    alive = [
        (source, targets)
        for source, targets in stream
        if network.node_is_up(source)
    ]
    for source, targets in alive:
        network.deliver(source, targets, POST, mode="unicast")
    return len(alive), dict(network.stats.plan_events)


def faulted_workload_spec() -> ScenarioSpec:
    """A churny 64-node unicast locate workload (crashes guaranteed)."""
    return ScenarioSpec(
        name="bench-delivery",
        topology="manhattan:8",
        strategy="manhattan",
        operations=OPERATIONS,
        clients=32,
        servers=8,
        ports=8,
        seed=616,
        cache_addresses=False,  # every request runs a faulted locate
        delivery_mode="unicast",
        arrival=ArrivalSpec(kind="poisson", rate=1000.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        churn=ChurnSpec(kind="failover", rate=1.0, downtime=1.5),
    )


def run_delivery_experiment():
    topology, stream, crashed = faulted_message_stream()
    count, plan_events = run_planned(topology, stream, crashed)
    workload = WorkloadDriver(faulted_workload_spec()).run()
    return {
        "stream": {
            "messages": count,
            "plan_events": plan_events,
        },
        "workload": workload,
    }


def test_bench_e16_delivery():
    results = run_delivery_experiment()
    stream = results["stream"]
    workload = results["workload"]

    assert stream["messages"] >= 900

    # -- plan-cache effectiveness on the stream ------------------------------
    events = stream["plan_events"]
    assert events["plan_hit"] > 10 * events["plan_miss"]
    # One surviving routing table per fault revision, not per message.
    assert events.get("route_miss", 0) <= 1

    # -- end-to-end faulted workload through the driver ----------------------
    metrics = workload.metrics
    assert metrics.requests == OPERATIONS
    assert metrics.churn_events.get("crash", 0) >= 1  # faults actually active
    # Measured 0.9928; may improve, may not slip more than 1%.
    assert metrics.success_rate >= 0.9928 * 0.99
    assert metrics.locate_hops.percentile(95) == 35
    cache = workload.plan_cache
    assert cache["plan_hit"] > cache["plan_miss"]

    # -- replay is byte-identical --------------------------------------------
    replayed = replay_trace(workload.trace)
    assert json.dumps(replayed.summary(), sort_keys=True) == json.dumps(
        workload.summary(), sort_keys=True
    )
    assert replayed.plan_cache == workload.plan_cache

