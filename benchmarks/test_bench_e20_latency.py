"""E20 — wall-clock latency under the time model: where hop counts lie.

The paper's message-count comparison makes the centralized name server
look cheap: one hop to the well-known node.  E20 prices the same traffic
on the virtual clock (``repro.simtime``) and shows what the hop metric
hides — every request queues behind every other at the central server,
so under an open Poisson stream (and worse, under bursts) the
centralized p99 latency degrades far past checkerboard's even though its
hop count stays lower.

Timed runs are fully deterministic, so the percentiles are exact,
repeatable numbers — asserted below as literals.
"""

from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    PopularitySpec,
    ScenarioSpec,
    run_scenario,
)

STRATEGIES = ("checkerboard", "centralized")

#: Arrival programs: an open Poisson stream fast enough to stress a
#: single 0.8ms server (1200 queries/s x 0.8ms ≈ full utilization of the
#: central node), and the same volume arriving in back-to-back bursts.
ARRIVALS = {
    "poisson": ArrivalSpec(kind="poisson", rate=1200.0),
    "burst": ArrivalSpec(kind="burst", burst_size=80, burst_gap=0.05),
}

#: Half-millisecond links, mild jitter, and a 0.8ms per-message service
#: time at every node — the knob that melts whichever node the strategy
#: concentrates traffic on.
TIME_MODEL = TimeModelSpec(
    default_link=LinkTiming(latency=0.0005, jitter=0.0001),
    node_service=0.0008,
)

OPERATIONS = 4_000


def latency_spec(strategy: str, arrival_name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bench-latency/{strategy}/{arrival_name}",
        topology="complete:36",
        strategy=strategy,
        operations=OPERATIONS,
        clients=36,
        servers=6,
        ports=6,
        seed=2025,
        cache_addresses=False,  # every request locates: full traffic
        arrival=ARRIVALS[arrival_name],
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        time_model=TIME_MODEL,
    )


def run_latency_experiment():
    outcomes = {}
    for strategy in STRATEGIES:
        outcomes[strategy] = {
            arrival_name: run_scenario(latency_spec(strategy, arrival_name))
            for arrival_name in ARRIVALS
        }
    return outcomes


def test_bench_e20_latency():
    outcomes = run_latency_experiment()

    section = {}
    for strategy, by_arrival in outcomes.items():
        section[strategy] = {}
        for arrival_name, result in by_arrival.items():
            summary = result.metrics.summary()
            latency = summary["latency"]
            queues = summary["queues"]
            assert latency["count"] == OPERATIONS
            section[strategy][arrival_name] = {
                "p99_us": latency["p99"],
                "queue_wait_p99_us": queues["wait_us"]["p99"],
                # Program-owned work counts: how many stations the pricing
                # loop visited and how many messages it dropped.  Unlike
                # profiler call counts they are the same on every Python.
                "queue_visits": queues["depth"]["count"],
                "message_timeouts": queues["message_timeouts"],
            }

    # The headline: same traffic, same links — the centralized server's
    # queue is what hop counts can't see.  Under Poisson it degrades the
    # tail; bursts make it strictly worse than its own Poisson tail.
    for arrival_name in ARRIVALS:
        central = section["centralized"][arrival_name]
        spread = section["checkerboard"][arrival_name]
        assert central["p99_us"] > 2 * spread["p99_us"], (
            f"centralized p99 should melt under {arrival_name}: "
            f"{central['p99_us']} vs checkerboard {spread['p99_us']}"
        )
        assert central["queue_wait_p99_us"] > spread["queue_wait_p99_us"]
    assert (
        section["centralized"]["burst"]["p99_us"]
        >= section["centralized"]["poisson"]["p99_us"]
    )

    # The exact headline.  The poisson p99 ratio is the point of the
    # experiment (centralized melts, checkerboard does not); the burst
    # work counts pin the pricing loop itself — a rewrite of the overlay
    # must visit exactly as many stations and drop exactly as many
    # messages as before, on any Python version.
    assert section["checkerboard"]["poisson"]["p99_us"] == 19_209
    assert section["checkerboard"]["burst"]["p99_us"] == 92_647
    assert round(
        section["centralized"]["poisson"]["p99_us"]
        / section["checkerboard"]["poisson"]["p99_us"],
        3,
    ) == 5.008
    assert section["checkerboard"]["burst"]["queue_visits"] == 69_742
    assert section["checkerboard"]["burst"]["message_timeouts"] == 0

    # Hop counts *do* favour the centralized server — both facts hold,
    # which is the whole point of the experiment.
    central_hops = (
        outcomes["centralized"]["poisson"].metrics.locate_hops.percentile(95)
    )
    spread_hops = (
        outcomes["checkerboard"]["poisson"].metrics.locate_hops.percentile(95)
    )
    assert central_hops <= spread_hops

    # Determinism: the numbers are exact, not sampled.
    repeat = run_scenario(latency_spec("centralized", "poisson"))
    assert (
        repeat.metrics.summary()["latency"]
        == outcomes["centralized"]["poisson"].metrics.summary()["latency"]
    )
