"""Incremental sweeps end to end: cache parity, shared executors, invalidation.

The cache and a shared executor both promise the same thing the parallel
engine promises: **nothing observable changes**.  A cached re-run, a
partially invalidated re-run, a re-run through the same executor and a
plain cold run must all produce byte-identical ``MatrixReport.digest()``
values — the only difference is which cells actually executed, and that
difference is visible solely in the digest-excluded ``cache`` section.
"""

import cProfile
import dataclasses
import json
import threading
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.bounds import checkerboard_grid
from repro.exec import SpoolError, run_matrix_parallel
from repro.exec.cache import (
    CACHE_COUNTERS,
    CellCache,
    CellKeyer,
    spec_fingerprint,
)
from repro.exec.plan import ExecutionPlan
from repro.exec.spool import load_spool
from repro.network.graph import Graph
from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
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
        report, _ = run_matrix(edited, cache_dir=tmp_path, profile=True)
        assert report.digest() == fresh.digest()
        stats = report.cache_stats
        # Per topology, the first strategy block's two unchanged cells hit;
        # everything after the first changed cell has a moved chain key and
        # recomputes (3 topologies x 2 hits each).
        assert stats["hits"] == 6
        assert stats["misses"] == len(report) - 6
        # The hits were never executed, so they are replayed as warm-ups
        # before the first miss on their topology runs — each one timed.
        assert stats["warmups"] == 6
        phases = report.to_dict()["profile"]["sequential"]
        assert phases["cache-warmup"]["count"] == 6
        assert phases["cell-run"]["count"] == len(report) - 6
        assert phases["topology-build"]["count"] == 3

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
        key = CellKeyer().key(cells[0])
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


class TestCallerOwnedExecutor:
    def test_two_sweeps_through_one_executor_match_the_cold_run(self, cold):
        with ProcessPoolExecutor(max_workers=3) as executor:
            first, second = (
                run_matrix_parallel(grid(), workers=3, executor=executor)[0]
                for _ in range(2)
            )
            # Neither sweep shut the caller's executor down.
            assert executor.submit(sum, (1, 2)).result() == 3
        assert first.digest() == second.digest() == cold.digest()
        # No cache dir, no cache section.
        assert first.cache_stats is None and second.cache_stats is None

    def test_a_one_shard_plan_submits_nothing(self):
        class Refusing(Executor):
            def submit(self, fn, /, *args, **kwargs):
                raise AssertionError("a one-shard plan must run in process")

        one = grid(topologies=("manhattan:4",))
        plain, _ = run_matrix(one)
        report, _ = run_matrix_parallel(
            one, workers=3, executor=Refusing(), profile=True
        )
        assert report.digest() == plain.digest()
        assert list(report.to_dict()["profile"]) == ["sequential"]

    def test_one_process_runs_every_shard_of_a_three_shard_plan(self, cold):
        assert len(ExecutionPlan.from_matrix(grid(), 3).shards) == 3
        with ProcessPoolExecutor(max_workers=1) as executor:
            report, _ = run_matrix_parallel(
                grid(), workers=3, executor=executor
            )
        assert report.digest() == cold.digest()


class TestFailingShard:
    @pytest.mark.parametrize("owned", [False, True],
                             ids=["caller-owned", "owned"])
    def test_running_siblings_finish_before_the_error(
        self, monkeypatch, owned
    ):
        """Shard 0 has failed, shard 1 runs a while, shard 2 has not
        started: the error is raised only once shard 1 is done, and the
        spool directory outlives it."""
        import repro.exec.runner as runner_module

        made = []

        class Fake(Executor):
            def __init__(self, max_workers=None):
                self.futures, self.shut_down = [], False
                made.append(self)

            def submit(self, fn, payload):
                future = Future()
                self.futures.append(future)
                if len(self.futures) == 1:
                    future.set_exception(RuntimeError("shard 0 failed"))
                elif len(self.futures) == 2:
                    future.set_running_or_notify_cancel()

                    def finish():
                        spool_dir = Path(payload.spool_path).parent
                        self.spool_dir_alive = spool_dir.is_dir()
                        future.set_result(([], None, None))

                    self.timer = threading.Timer(0.3, finish)
                    self.timer.start()
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                self.shut_down = True

        if owned:
            monkeypatch.setattr(runner_module, "ProcessPoolExecutor", Fake)
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            run_matrix_parallel(
                grid(), workers=3, executor=None if owned else Fake()
            )
        (fake,) = made
        resolved = fake.futures[1].done()
        fake.timer.join(timeout=10)
        assert resolved and fake.spool_dir_alive
        assert fake.futures[2].cancelled()
        assert fake.shut_down == owned


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


class TestSingleShardFallback:
    def test_inline_cells_land_at_their_plan_positions(self):
        # One topology + one incompatible strategy: the grid plans to a
        # single shard *and* has skipped cells, so the inline merge must
        # place each cell by its plan position, not a naive enumerate over
        # the survivors.
        matrix = grid(
            topologies=("complete:16",),
            strategies=("checkerboard", "manhattan", "hash-locate"),
        )
        plan = ExecutionPlan.from_matrix(matrix, workers=4)
        assert len(plan.shards) == 1
        assert plan.skipped  # at least one strategy/topology mismatch
        report, _ = run_matrix_parallel(matrix, workers=4)
        expanded, _ = matrix.expand()
        assert [
            (cell.topology, cell.strategy, cell.regime) for cell in report.cells
        ] == [(cell.topology, cell.strategy, cell.regime) for cell in expanded]

    def test_a_one_shard_plan_makes_no_spool(self, monkeypatch):
        import repro.exec.runner as runner_module

        def no_spool(*args, **kwargs):
            raise AssertionError("a one-shard plan made a spool directory")

        monkeypatch.setattr(runner_module.tempfile, "mkdtemp", no_spool)
        matrix = grid(topologies=("complete:16",), strategies=("checkerboard",))
        report, _ = run_matrix_parallel(matrix, workers=4)
        assert len(report) == len(matrix.expand()[0])


#: CI's 9-cell smoke grid (the ``ci-grid.json`` the workflow writes).
CI_GRID = MatrixSpec(
    name="ci-smoke",
    topologies=("complete:36", "manhattan:6", "hypercube:5"),
    strategies=("checkerboard", "hash-locate", "centralized"),
    base=ScenarioSpec(
        operations=120, clients=12, servers=8, ports=4,
        delivery_mode="unicast", seed=1717,
        arrival=ArrivalSpec(kind="poisson", rate=1500.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
    ),
)


class TestWarmSweepCost:
    """A warm sweep keys each cell once and rebuilds nothing quadratic.

    Counted by code object under ``cProfile``, so the count does not depend
    on the name a module imported a function under; nothing is timed.
    """

    def test_one_fingerprint_per_cell_and_no_grid_or_sort(self, tmp_path):
        run_matrix(CI_GRID, cache_dir=tmp_path)
        profiler = cProfile.Profile()
        report, _ = profiler.runcall(run_matrix, CI_GRID, cache_dir=tmp_path)
        assert report.cache_stats["hits"] == len(report) == 9
        assert report.cache_stats["misses"] == 0
        calls = {
            entry.code: entry.callcount for entry in profiler.getstats()
        }
        assert calls.get(spec_fingerprint.__code__) == 9
        assert checkerboard_grid.__code__ not in calls
        # Connectivity checks walk adjacency sets; nothing sorts them.
        assert Graph.spanning_tree.__code__ not in calls
        # The skip check's topologies are built from whole neighbour sets,
        # and the keys serialize specs from field names read once per class.
        for function in (
            Graph.add_edge, Graph.add_node, dataclasses.fields,
            dataclasses.is_dataclass,
        ):
            assert function.__code__ not in calls, function.__qualname__
