"""E19 — incremental sweeps: the cell cache and the warm worker pool.

E18 made one sweep cheap; real matrix studies run the *same* sweep many
times — after editing one regime, on every CI push, per parameter probe.
This benchmark runs the two layers that make the re-run nearly free
and pins the properties they stand on:

* **cold fill**: a cache-backed run stores every cell, hits none, and its
  report digest equals the plain uncached run's — populating the cache is
  not allowed to change anything;
* **warm re-run**: the same grid against the filled cache executes *zero*
  cells (100% hits, sequentially and across worker processes) and still
  reproduces the digest byte for byte;
* **warm pool**: repeated parallel runs through one :class:`WarmPool`
  stay digest-identical while reusing worker processes and their
  per-topology networks.

How much faster the warm re-run is belongs to the ledger
(``bench.warm_speedup`` in ``benchmarks/ledger``); nothing is timed here.
"""

from repro.exec import WarmPool, run_matrix_parallel
from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    run_matrix,
)

#: Requests per matrix cell (27 cells; the grid runs cold once, warm
#: twice, and twice more through the warm pool).
OPERATIONS = 120
#: Worker count for the parallel warm re-run and the warm pool.
WORKERS = 4


def bench_matrix() -> MatrixSpec:
    """The E18-shaped grid, reseeded so E19 caches never collide with it."""
    return MatrixSpec(
        name="e19",
        topologies=("complete:36", "manhattan:6", "hypercube:5"),
        strategies=("checkerboard", "hash-locate", "centralized"),
        fault_regimes=(
            FaultRegimeSpec(),
            FaultRegimeSpec(kind="waves", events=3, size=2, start=0.08,
                            period=0.15, downtime=0.1),
            FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12,
                            downtime=0.08),
        ),
        base=ScenarioSpec(
            operations=OPERATIONS,
            clients=12,
            servers=8,
            ports=4,
            delivery_mode="unicast",
            seed=1919,
            arrival=ArrivalSpec(kind="poisson", rate=1500.0),
            popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        ),
    )


def run_incremental_experiment(cache_dir):
    cold, _ = run_matrix(bench_matrix(), cache_dir=cache_dir)
    warm, _ = run_matrix(bench_matrix(), cache_dir=cache_dir)
    warm_parallel, _ = run_matrix(
        bench_matrix(), workers=WORKERS, cache_dir=cache_dir
    )
    with WarmPool(workers=WORKERS) as pool:
        first, _ = run_matrix_parallel(bench_matrix(), pool=pool)
        second, _ = run_matrix_parallel(bench_matrix(), pool=pool)
    return cold, warm, warm_parallel, first, second


def test_bench_e19_incremental(tmp_path):
    cold, warm, warm_parallel, first, second = run_incremental_experiment(
        tmp_path / "cache"
    )

    # -- the cache changes nothing but the work done -------------------------
    assert len(cold) == 27 and cold.skipped == []
    cold_stats = cold.cache_stats
    assert cold_stats["stored"] == len(cold) and cold_stats["hits"] == 0
    assert warm.digest() == cold.digest(), (
        "warm re-run diverged from the cold run"
    )
    assert warm.canonical_dict() == cold.canonical_dict()

    # -- the warm re-run executed zero cells ---------------------------------
    warm_stats = warm.cache_stats
    assert warm_stats["hits"] / len(warm) == 1.0 and warm_stats["misses"] == 0
    par_stats = warm_parallel.cache_stats
    assert warm_parallel.digest() == cold.digest(), (
        "parallel warm re-run diverged"
    )
    assert par_stats["hits"] == len(warm_parallel)

    # -- the warm pool is digest-neutral across runs -------------------------
    assert first.digest() == cold.digest() and second.digest() == cold.digest()
    pool_stats = second.cache_stats
    assert pool_stats.get("pool_network_reuses", 0) + \
        pool_stats.get("pool_network_builds", 0) == 3

