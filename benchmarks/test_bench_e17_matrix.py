"""E17 — the scenario-matrix engine: grids of workloads under fault
timelines.

The paper's qualitative claim is a trade-off surface, not a point: cost and
robustness move against each other across strategies and topologies.  This
benchmark runs a 3-topology × 3-strategy × 3-fault-regime grid (fault-free,
crash/recover waves, link flaps) through the matrix engine, checks the
shared contract on every cell, proves the shared-network amortization
deterministically (a warm planner serves strictly more plans from cache
than 27 cold networks would) and asserts the grid's headline numbers.
That the same grid merges byte-identically across worker processes is
``tests/integration/test_parallel_matrix.py``'s job.
"""

import json

from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    replay_trace,
    run_matrix,
    run_scenario,
)

#: Requests per matrix cell (27 cells; the grid is run twice — through the
#: matrix on shared networks, and cell by cell on fresh ones — for the
#: amortization proof).
OPERATIONS = 900

TOPOLOGIES = ("complete:36", "manhattan:6", "hypercube:5")
STRATEGIES = ("checkerboard", "hash-locate", "centralized")
REGIMES = (
    FaultRegimeSpec(),
    FaultRegimeSpec(kind="waves", events=3, size=2, start=0.08, period=0.15,
                    downtime=0.1),
    FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12,
                    downtime=0.08),
)


def bench_matrix() -> MatrixSpec:
    """The E17 grid: each cell's traffic derives from a stable hash of its
    grid coordinates, so results are independent of execution order."""
    return MatrixSpec(
        name="e17",
        topologies=TOPOLOGIES,
        strategies=STRATEGIES,
        fault_regimes=REGIMES,
        base=ScenarioSpec(
            operations=OPERATIONS,
            clients=12,
            servers=8,
            ports=4,
            delivery_mode="unicast",
            seed=1717,
            arrival=ArrivalSpec(kind="poisson", rate=1500.0),
            popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        ),
    )


def run_matrix_experiment():
    """The grid through the matrix (one shared network per topology) and
    each of its cells alone on a fresh network."""
    shared_report, results = run_matrix(bench_matrix(), keep_results=True)
    cells, _ = bench_matrix().expand()
    cold_results = [run_scenario(cell.spec) for cell in cells]
    return shared_report, cold_results, results


def test_bench_e17_matrix():
    shared_report, cold_results, results = run_matrix_experiment()

    # -- the full grid ran: 3 x 3 x 3, nothing skipped -----------------------
    assert len(shared_report) == 27
    assert shared_report.skipped == []
    assert set(shared_report.by_topology()) == set(TOPOLOGIES)
    assert set(shared_report.by_strategy()) == set(STRATEGIES)
    assert len(shared_report.by_regime()) == 3

    # -- shared contract on every cell ---------------------------------------
    for cell in shared_report.cells:
        summary = cell.summary
        assert summary["requests"] == OPERATIONS
        assert summary["successes"] + summary["failures"] == OPERATIONS
        assert summary["locate_hops"]["p99"] >= summary["locate_hops"]["p50"]

    # -- robustness is visible on the regime axis ----------------------------
    by_regime = shared_report.by_regime()
    assert by_regime["none"]["availability"] == 1.0
    for label, aggregate in by_regime.items():
        if label != "none":
            assert aggregate["availability"] <= 1.0
            # Faults are disruptive but not fatal: the rendezvous recovers.
            assert aggregate["availability"] > 0.5
    # Measured 0.9278; may improve, may not slip more than 1%.
    assert shared_report.availability_floor() >= 0.9278 * 0.99

    # -- the paper's load story still holds, cell by cell --------------------
    by_strategy = shared_report.by_strategy()
    assert by_strategy["centralized"]["p95_locate_hops"] <= \
        by_strategy["checkerboard"]["p95_locate_hops"]

    # -- shared-network amortization, deterministically ----------------------
    # Identical grids, identical traffic; the only difference is network
    # sharing.  Cells on a warm shared network must (a) produce identical
    # metrics and (b) pay strictly fewer plan misses in total.
    assert [c.summary for c in shared_report.cells] == \
        [result.summary() for result in cold_results]
    shared_misses = shared_report.plan_cache_events().get("plan_miss", 0)
    cold_misses = sum(
        result.plan_cache.get("plan_miss", 0) for result in cold_results
    )
    assert shared_misses < cold_misses, (
        f"warm shared networks should save plan misses "
        f"(shared={shared_misses}, cold={cold_misses})"
    )
    # Measured 1015; may improve, may not grow more than 10%.
    assert shared_misses <= 1015 * 1.10
    shared_hits = shared_report.plan_cache_events().get("plan_hit", 0)
    # With address caching on, most requests never even consult the planner;
    # of the lookups that do happen, more are served warm than cold even
    # though every fault event flushes the caches.
    assert shared_hits > shared_misses

    # -- a faulted cell replays byte-for-byte (link ops included) ------------
    faulted = next(
        result for result in results
        if result.spec.faults.kind == "flaps" and result.metrics.fault_events
    )
    replayed = replay_trace(faulted.trace)
    assert json.dumps(replayed.to_dict(), sort_keys=True) == \
        json.dumps(faulted.to_dict(), sort_keys=True)

