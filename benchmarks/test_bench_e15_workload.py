"""E15 — the workload engine: strategies under production-style traffic.

The paper compares name servers by per-instance message counts; this
benchmark compares them the way a production operator would — identical
high-volume traffic (fixed seed, shared arrival/popularity/churn programs)
through each strategy, reporting tail percentiles, cache hit rates and
per-node load, and persists the headline numbers to ``BENCH_workload.json``
so later PRs have a performance trajectory.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs the same scenarios
but leaves ``BENCH_workload.json`` alone, so the tier-1 job can assert a
clean work tree afterwards.
"""

import json
import os
from pathlib import Path

from repro.obs import host_metadata
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    PopularitySpec,
    ScenarioSpec,
    compare_under_load,
    run_scenario,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_workload.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

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


def test_bench_e15_workload(benchmark, record):
    results, soak = benchmark.pedantic(
        run_workload_experiment, rounds=1, iterations=1
    )

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
    p95 = {
        name: result.metrics.locate_hops.percentile(95)
        for name, result in by_name.items()
    }
    assert p95["centralized"] <= 2
    assert p95["hash-locate"] <= 2
    assert 8 <= p95["checkerboard"] <= 24  # Theta(sqrt 64) + reply traffic

    # -- reproducibility: identical metrics across two runs ------------------
    repeat = run_scenario(scale_spec().with_strategy(STRATEGIES[0]))
    assert repeat.summary() == by_name[STRATEGIES[0]].summary()

    # -- the cached soak exercises the cache + churn machinery ---------------
    assert soak.metrics.cache_hit_rate > 0.5
    assert soak.metrics.stale_retries > 0
    assert soak.metrics.churn_events
    assert soak.metrics.success_rate > 0.9

    # -- persist the perf trajectory (full-size runs only; merge: other
    # experiments own their own top-level sections of the same file) ---------
    if not SMOKE:
        payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
        payload.update({
            "experiment": "e15-workload",
            "host": host_metadata(),
            "scenario": scale_spec().to_dict(),
            "strategies": {
                result.spec.strategy: {
                    "ops_per_second": int(result.ops_per_second),
                    "locates": result.metrics.locates,
                    "p50_locate_hops": result.metrics.locate_hops.percentile(50),
                    "p95_locate_hops": result.metrics.locate_hops.percentile(95),
                    "p99_locate_hops": result.metrics.locate_hops.percentile(99),
                    "cache_hit_rate": round(result.metrics.cache_hit_rate, 4),
                    "load_imbalance": result.metrics.load_balance()["imbalance"],
                    "stale_retries": result.metrics.stale_retries,
                }
                for result in results
            },
            "soak": {
                "cache_hit_rate": round(soak.metrics.cache_hit_rate, 4),
                "stale_retries": soak.metrics.stale_retries,
                "churn_events": soak.metrics.churn_events,
            },
        })
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    record(
        total_locates=total_locates,
        ops_per_second_checkerboard=int(by_name["checkerboard"].ops_per_second),
    )
