"""Incremental sweeps end to end: cache parity, warm pools, invalidation.

The cache and the warm pool both promise the same thing the parallel
engine promises: **nothing observable changes**.  A cached re-run, a
partially invalidated re-run, a warm-pool re-run and a plain cold run
must all produce byte-identical ``MatrixReport.digest()`` values — the
only difference is which cells actually executed, and that difference is
visible solely in the digest-excluded ``cache`` section.
"""

import dataclasses
import json

import pytest

from repro.exec import SpoolError, WarmPool, run_matrix_parallel
from repro.exec.cache import CACHE_COUNTERS, CellCache, cell_cache_key
from repro.exec.plan import ExecutionPlan
from repro.exec.spool import load_spool, shard_spool_path
from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixSpec,
    ScenarioSpec,
    run_matrix,
)

BASE = ScenarioSpec(
    operations=60, clients=4, servers=4, ports=2,
    delivery_mode="unicast", seed=23,
    arrival=ArrivalSpec(kind="poisson", rate=400.0),
)

REGIMES = (
    FaultRegimeSpec(),
    FaultRegimeSpec(kind="waves", events=2, size=2, start=0.08, period=0.15,
                    downtime=0.1),
    FaultRegimeSpec(kind="flaps", events=3, start=0.05, period=0.12,
                    downtime=0.08),
)


def grid(**overrides) -> MatrixSpec:
    settings = dict(
        name="incr",
        topologies=("complete:16", "manhattan:4", "hypercube:4"),
        strategies=("checkerboard", "hash-locate"),
        fault_regimes=REGIMES,
        base=BASE,
    )
    settings.update(overrides)
    return MatrixSpec(**settings)


@pytest.fixture(scope="module")
def cold():
    report, _ = run_matrix(grid())
    return report


class TestCachedRunParity:
    def test_cold_run_stores_every_cell_and_hits_none(self, cold, tmp_path):
        report, _ = run_matrix(grid(), cache_dir=tmp_path)
        assert report.digest() == cold.digest()
        stats = report.cache_stats
        assert stats["stored"] == len(report)
        assert stats["hits"] == 0
        assert set(CACHE_COUNTERS) <= set(stats)

    @pytest.mark.parametrize("workers", [None, 2, 3, 0])
    def test_warm_rerun_executes_zero_cells_at_any_worker_count(
        self, cold, tmp_path, workers
    ):
        run_matrix(grid(), cache_dir=tmp_path)
        report, _ = run_matrix(grid(), workers=workers, cache_dir=tmp_path)
        assert report.digest() == cold.digest()
        assert report.canonical_dict() == cold.canonical_dict()
        stats = report.cache_stats
        assert stats["hits"] == len(report)
        assert stats["misses"] == 0
        assert stats["stored"] == 0

    def test_parallel_cold_fill_serves_a_sequential_rerun(
        self, cold, tmp_path
    ):
        # Topology-affine sharding keeps per-topology key chains identical,
        # so entries written by workers hit in a sequential pass too.
        run_matrix(grid(), workers=3, cache_dir=tmp_path)
        report, _ = run_matrix(grid(), cache_dir=tmp_path)
        assert report.digest() == cold.digest()
        assert report.cache_stats["hits"] == len(report)

    def test_cache_section_never_enters_the_digest(self, cold, tmp_path):
        report, _ = run_matrix(grid(), cache_dir=tmp_path)
        assert "cache" in report.to_dict()
        assert "cache" not in report.canonical_dict()
        assert report.digest() == cold.digest()

    def test_unshared_networks_cache_with_pure_keys(self, tmp_path):
        plain, _ = run_matrix(grid(), share_networks=False)
        run_matrix(grid(), share_networks=False, cache_dir=tmp_path)
        warm, _ = run_matrix(grid(), share_networks=False,
                             cache_dir=tmp_path)
        assert warm.digest() == plain.digest()
        assert warm.cache_stats["hits"] == len(warm)


class TestPartialInvalidation:
    def test_editing_one_regime_recomputes_only_downstream_cells(
        self, tmp_path
    ):
        run_matrix(grid(), cache_dir=tmp_path)
        edited = grid(fault_regimes=(
            REGIMES[0], REGIMES[1],
            FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12,
                            downtime=0.08),
        ))
        fresh, _ = run_matrix(edited)
        report, _ = run_matrix(edited, cache_dir=tmp_path)
        assert report.digest() == fresh.digest()
        stats = report.cache_stats
        # Per topology, the first strategy block's two unchanged cells hit;
        # everything after the first changed cell has a moved chain key and
        # recomputes (3 topologies x 2 hits each).
        assert stats["hits"] == 6
        assert stats["misses"] == len(report) - 6
        # The hits were never executed, so they are replayed as warm-ups
        # before the first miss on their topology runs.
        assert stats["warmups"] == 6

    def test_parallel_rerun_after_partial_invalidation(self, tmp_path):
        run_matrix(grid(), cache_dir=tmp_path)
        edited = grid(fault_regimes=(
            REGIMES[0], REGIMES[1],
            FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12,
                            downtime=0.08),
        ))
        fresh, _ = run_matrix(edited)
        report, _ = run_matrix(edited, workers=3, cache_dir=tmp_path)
        assert report.digest() == fresh.digest()
        assert report.cache_stats["hits"] == 6

    def test_poisoned_entry_is_detected_not_served(self, tmp_path):
        # Hand-edit a cached payload so it disagrees with recomputation:
        # the warm-up replay cross-check must refuse to proceed.
        small = grid(topologies=("complete:16",),
                     strategies=("checkerboard",))
        report, _ = run_matrix(small, cache_dir=tmp_path)
        cells, _ = small.expand()
        key = cell_cache_key(cells[0])
        path = CellCache(tmp_path).path_for(key)
        payload = json.loads(path.read_text())
        payload["cell"]["summary"]["requests"] = 999999
        path.write_text(json.dumps(payload))
        edited = dataclasses.replace(
            small, fault_regimes=REGIMES[:2] + (
                FaultRegimeSpec(kind="flaps", events=4, start=0.05,
                                period=0.12, downtime=0.08),
            ),
        )
        with pytest.raises(ValueError, match="poisoned"):
            run_matrix(edited, cache_dir=tmp_path)


class TestDamagedCacheTolerance:
    def test_corrupt_entry_recomputes_with_stable_digest(
        self, cold, tmp_path
    ):
        run_matrix(grid(), cache_dir=tmp_path)
        entries = sorted(tmp_path.rglob("*.json"))
        entries[0].write_text("not json {")
        report, _ = run_matrix(grid(), cache_dir=tmp_path)
        assert report.digest() == cold.digest()
        stats = report.cache_stats
        assert stats["corrupt"] == 1
        # Only the damaged cell recomputes: the chain advances on every
        # cell whether served or executed, so later keys are unmoved.
        assert stats["hits"] == len(report) - 1
        assert stats["stored"] == 1

    def test_deleted_entry_recomputes_and_restores_it(self, cold, tmp_path):
        run_matrix(grid(), cache_dir=tmp_path)
        entries = sorted(tmp_path.rglob("*.json"))
        entries[0].unlink()
        report, _ = run_matrix(grid(), cache_dir=tmp_path)
        assert report.digest() == cold.digest()
        assert report.cache_stats["stored"] >= 1
        rerun, _ = run_matrix(grid(), cache_dir=tmp_path)
        assert rerun.cache_stats["hits"] == len(rerun)


class TestArtifactRunsAreWriteThrough:
    def test_keep_results_never_serves_from_cache(self, tmp_path):
        run_matrix(grid(), cache_dir=tmp_path)
        report, results = run_matrix(
            grid(), cache_dir=tmp_path, keep_results=True
        )
        # Every cell executed (results exist for all), yet the store was
        # refreshed — the cache stayed write-through.
        assert len(results) == len(report)
        assert report.cache_stats["hits"] == 0
        assert report.cache_stats["stored"] == len(report)


class TestWarmPool:
    def test_repeated_runs_reuse_processes_and_networks(self, cold):
        with WarmPool(workers=3) as pool:
            first, _ = run_matrix_parallel(grid(), pool=pool)
            executor = pool.executor
            second, _ = run_matrix_parallel(grid(), pool=pool)
            assert pool.executor is executor  # same processes
        assert first.digest() == cold.digest()
        assert second.digest() == cold.digest()
        assert first.cache_stats["pool_network_builds"] == 3
        # Shard->process placement is the executor's business, so a run-2
        # worker may draw a topology some *other* worker built — but every
        # checkout is exactly one reuse or one build.  (The deterministic
        # reuse semantics are pinned in TestWorkerNetworkStore.)
        second_stats = second.cache_stats
        assert second_stats.get("pool_network_reuses", 0) + \
            second_stats.get("pool_network_builds", 0) == 3

    def test_one_shard_plan_still_runs_in_the_pool(self):
        # A one-topology grid plans to a single shard; given a pool it must
        # run there like any other plan, not fall back to an in-process
        # run that ignores the pool (cache_stats None, network rebuilt on
        # every call).  One worker makes the reuse deterministic.
        one = grid(topologies=("manhattan:4",))
        plain, _ = run_matrix(one)
        assert plain.cache_stats is None
        with WarmPool(workers=1) as pool:
            first, _ = run_matrix(one, pool=pool)
            second, _ = run_matrix_parallel(one, pool=pool)
        assert first.digest() == second.digest() == plain.digest()
        assert first.cache_stats == {"pool_network_builds": 1}
        assert second.cache_stats == {"pool_network_reuses": 1}

    def test_invalidate_forces_rebuilds(self):
        with WarmPool(workers=2) as pool:
            run_matrix_parallel(grid(), pool=pool)
            pool.invalidate()
            report, _ = run_matrix_parallel(grid(), pool=pool)
        assert report.cache_stats["pool_network_builds"] == 3
        assert report.cache_stats.get("pool_network_reuses", 0) == 0

    def test_pool_composes_with_the_cell_cache(self, cold, tmp_path):
        with WarmPool(workers=2) as pool:
            run_matrix_parallel(grid(), pool=pool, cache_dir=tmp_path)
            warm, _ = run_matrix_parallel(
                grid(), pool=pool, cache_dir=tmp_path
            )
        assert warm.digest() == cold.digest()
        assert warm.cache_stats["hits"] == len(warm)

    def test_close_is_reentrant_and_pool_revives_lazily(self):
        pool = WarmPool(workers=2)
        pool.close()  # never started: a no-op
        run_matrix_parallel(grid(), pool=pool)
        pool.close()
        try:
            report, _ = run_matrix_parallel(grid(), pool=pool)  # revives
        finally:
            pool.close()
        assert report is not None


class TestWorkerNetworkStore:
    """The worker-side half of the pool, driven in-process.

    ``checkout_network`` runs inside worker processes, where assertions
    are invisible; here it runs against this process's module-global
    store, which makes the reuse/build/invalidate transitions exact.
    """

    @pytest.fixture(autouse=True)
    def clean_store(self, monkeypatch):
        import repro.exec.pool as pool_module

        monkeypatch.setattr(pool_module, "_WORKER_NETWORKS", {})
        monkeypatch.setattr(pool_module, "_WORKER_GENERATION", None)

    def _spec(self):
        return dataclasses.replace(BASE, topology="complete:16",
                                   strategy="checkerboard")

    def test_second_checkout_reuses_the_stored_network(self):
        from repro.exec.pool import checkout_network

        stats = {}
        spec = self._spec()
        built = checkout_network({}, spec, generation=0, stats=stats)
        again = checkout_network({}, spec, generation=0, stats=stats)
        assert again is built
        assert stats == {"pool_network_builds": 1, "pool_network_reuses": 1}

    def test_generation_bump_drops_the_store(self):
        from repro.exec.pool import checkout_network

        stats = {}
        spec = self._spec()
        built = checkout_network({}, spec, generation=0, stats=stats)
        rebuilt = checkout_network({}, spec, generation=1, stats=stats)
        assert rebuilt is not built
        assert stats == {"pool_network_builds": 2}

    def test_shard_local_dict_shortcuts_the_store(self):
        from repro.exec.pool import checkout_network

        stats = {}
        spec = self._spec()
        local = {}
        built = checkout_network(local, spec, generation=0, stats=stats)
        # Within one shard task the local dict wins: planner caches stay
        # deliberately warm across same-topology cells, like the
        # sequential engine.
        again = checkout_network(local, spec, generation=0, stats=stats)
        assert again is built
        assert stats == {"pool_network_builds": 1}

    def test_no_generation_means_no_store_traffic(self):
        import repro.exec.pool as pool_module
        from repro.exec.pool import checkout_network

        stats = {}
        checkout_network({}, self._spec(), generation=None, stats=stats)
        assert pool_module._WORKER_NETWORKS == {}
        assert stats == {}

    def test_recycled_network_runs_counter_identical_cells(self):
        from repro.exec.cache import canonical_cell_payload
        from repro.exec.pool import checkout_network
        from repro.workload.matrix import run_cell

        matrix = grid(topologies=("complete:16",))
        cells, _ = matrix.expand()
        fresh_results = []
        for generation in (0, 0):  # second pass reuses through the store
            results = []
            local = {}
            for cell in cells:
                network = checkout_network(local, cell.spec, generation)
                cell_result, _ = run_cell(cell, network=network)
                results.append(canonical_cell_payload(cell_result))
            fresh_results.append(results)
        assert fresh_results[0] == fresh_results[1]


class TestMergeSafety:
    def test_conflicting_duplicate_positions_raise(self, monkeypatch):
        import repro.exec.runner as runner_module

        real_load = runner_module.load_spool
        flagged = {}

        def duplicating_load(path):
            entries = real_load(path)
            if entries and not flagged:
                flagged["done"] = True
                position, cell_result = entries[0]
                clone = dataclasses.replace(
                    cell_result,
                    summary={**cell_result.summary, "requests": 10 ** 9},
                )
                entries = entries + [(position, clone)]
            return entries

        monkeypatch.setattr(runner_module, "load_spool", duplicating_load)
        with pytest.raises(SpoolError, match="conflicting spool records"):
            run_matrix_parallel(grid(), workers=3)

    def test_byte_equal_duplicates_are_an_idempotent_respool(
        self, cold, monkeypatch
    ):
        import repro.exec.runner as runner_module

        real_load = runner_module.load_spool

        def duplicating_load(path):
            entries = real_load(path)
            return entries + entries[:1]  # same payload twice: legal

        monkeypatch.setattr(runner_module, "load_spool", duplicating_load)
        report, _ = run_matrix_parallel(grid(), workers=3)
        assert report.digest() == cold.digest()


class TestSingleShardFallbackSpool:
    def test_fallback_spool_records_true_plan_positions(self, tmp_path):
        # One topology + one incompatible strategy: the grid plans to a
        # single shard *and* has skipped cells, so spool positions must
        # come from the plan, not a naive enumerate over the survivors.
        matrix = grid(
            topologies=("complete:16",),
            strategies=("checkerboard", "manhattan", "hash-locate"),
        )
        plan = ExecutionPlan.from_matrix(matrix, workers=4)
        assert len(plan.shards) == 1
        assert plan.skipped  # at least one strategy/topology mismatch
        spool_dir = tmp_path / "spool"
        report, _ = run_matrix_parallel(
            matrix, workers=4, spool_dir=spool_dir
        )
        entries = load_spool(shard_spool_path(spool_dir, 0))
        planned = [
            indexed.position
            for shard in plan.shards for indexed in shard.cells
        ]
        assert [position for position, _ in entries] == planned
        assert len(entries) == len(report)
        # Cross-check payloads line up with the report's cells in order.
        for (_, spooled), reported in zip(entries, report.cells):
            assert spooled.to_dict() == reported.to_dict()
