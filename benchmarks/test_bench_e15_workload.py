"""E15 — the workload engine: strategies under production-style traffic.

The paper compares name servers by per-instance message counts; this
benchmark compares them the way a production operator would — identical
high-volume traffic (fixed seed, shared arrival/popularity/churn programs)
through each strategy, and asserts the tail percentiles, cache hit rates
and per-node load it measures.  Every run is deterministic, so the
headline numbers are literals here; throughput is the ledger's
``locate_flood`` workload (``benchmarks/ledger``).
"""

from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    PopularitySpec,
    ScenarioSpec,
    compare_under_load,
    run_scenario,
)

#: Strategies driven with the identical traffic program.
STRATEGIES = ("checkerboard", "hash-locate", "centralized")
OPERATIONS = 17_000  # x3 strategies = 51,000 locate operations


def scale_spec() -> ScenarioSpec:
    """The high-volume locate scenario: every request runs a locate."""
    return ScenarioSpec(
        name="bench-scale",
        topology="complete:64",
        strategy=STRATEGIES[0],
        operations=OPERATIONS,
        clients=64,
        servers=8,
        ports=8,
        seed=1234,
        cache_addresses=False,  # pure locate throughput, no address caching
        arrival=ArrivalSpec(kind="poisson", rate=2000.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        churn=ChurnSpec(kind="migration", rate=1.0),
    )


def soak_spec() -> ScenarioSpec:
    """The cached + churn soak: measures hit rates and stale retries."""
    return ScenarioSpec(
        name="bench-soak",
        topology="complete:64",
        strategy="checkerboard",
        operations=8_000,
        clients=32,
        servers=8,
        ports=8,
        seed=99,
        arrival=ArrivalSpec(kind="poisson", rate=800.0),
        popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.7),
        churn=ChurnSpec(kind="mixed", rate=2.0),
    )


def run_workload_experiment():
    results = compare_under_load(scale_spec(), list(STRATEGIES))
    soak = run_scenario(soak_spec())
    return results, soak


def test_bench_e15_workload():
    results, soak = run_workload_experiment()

    # -- scale: >= 50,000 locate operations across >= 3 strategies ----------
    total_locates = sum(result.metrics.locates for result in results)
    assert len(results) >= 3
    assert total_locates >= 50_000
    for result in results:
        metrics = result.metrics
        assert metrics.requests == OPERATIONS
        assert metrics.locates == OPERATIONS  # caching disabled: 1 per request
        summary = result.summary()
        # The production metrics are all present and well-formed.
        for percentile in ("p50", "p95", "p99"):
            assert percentile in summary["locate_hops"]
        assert "cache_hit_rate" in summary
        assert summary["load"]["nodes"] == 64
        assert summary["load"]["max"] > 0

    # Identical traffic, different name servers: the paper's ordering.  The
    # centralized server funnels everything through one node (imbalance ~n),
    # the hashed server through #ports nodes, checkerboard spreads evenly.
    by_name = {result.spec.strategy: result for result in results}
    imbalance = {
        name: result.metrics.load_balance()["imbalance"]
        for name, result in by_name.items()
    }
    assert imbalance["centralized"] > imbalance["hash-locate"] > imbalance[
        "checkerboard"
    ]
    assert imbalance["centralized"] >= 50  # ~n on the 64-node network
    assert imbalance["checkerboard"] <= 1.366 * 1.05  # measured; 5% slack
    p95 = {
        name: result.metrics.locate_hops.percentile(95)
        for name, result in by_name.items()
    }
    assert p95["centralized"] == 2
    assert p95["hash-locate"] == 2
    assert p95["checkerboard"] == 9  # Theta(sqrt 64) + reply traffic
    assert by_name["checkerboard"].metrics.locate_hops.percentile(99) == 9

    # -- reproducibility: identical metrics across two runs ------------------
    repeat = run_scenario(scale_spec().with_strategy(STRATEGIES[0]))
    assert repeat.summary() == by_name[STRATEGIES[0]].summary()

    # -- the cached soak exercises the cache + churn machinery ---------------
    # Measured 0.9313 and 310; either may improve, neither may slip past
    # its band.
    assert soak.metrics.cache_hit_rate >= 0.9313 * 0.98
    assert 0 < soak.metrics.stale_retries <= 310 * 1.10
    assert soak.metrics.churn_events
    assert soak.metrics.success_rate > 0.9

