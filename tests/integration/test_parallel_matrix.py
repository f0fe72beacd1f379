"""The parallel execution engine end to end: exactness across processes.

The engine's one promise is that parallelism changes *nothing* observable:
the merged report is byte-identical to the sequential run at any worker
count, per-cell traces recorded inside worker processes are exactly the
traces a sequential run records, and a worker-recorded trace replays
byte-exact in the parent process.  Picklability of everything that crosses
the process boundary is pinned here too — that is what lets results (with
traces) travel back from workers at all.
"""

import ast
import dataclasses
import json
import pickle
from pathlib import Path

import pytest

import repro
from repro.exec import ExecutionPlan, WarmPool, load_spool
from repro.exec.runner import run_matrix_parallel
from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    MatrixReport,
    ScenarioSpec,
    Trace,
    replay_trace,
    run_matrix,
)

BASE = ScenarioSpec(
    operations=90, clients=4, servers=4, ports=2,
    delivery_mode="unicast", seed=23,
    arrival=ArrivalSpec(kind="poisson", rate=400.0),
    churn=ChurnSpec(kind="failover", rate=1.5, downtime=0.2),
)

REGIMES = (
    FaultRegimeSpec(),
    FaultRegimeSpec(kind="waves", events=2, size=1, start=0.1, period=0.2,
                    downtime=0.1),
    FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                    downtime=0.1),
)


def parallel_matrix() -> MatrixSpec:
    return MatrixSpec(
        name="par",
        topologies=("complete:16", "manhattan:4", "hypercube:4"),
        strategies=("checkerboard", "centralized"),
        fault_regimes=REGIMES,
        base=BASE,
    )


@pytest.fixture(scope="module")
def sequential():
    return run_matrix(parallel_matrix(), keep_results=True)


class TestByteIdenticalMerge:
    @pytest.mark.parametrize("workers", [2, 3, 4, 0])
    def test_digest_matches_sequential_at_any_worker_count(
        self, sequential, workers
    ):
        seq_report, _ = sequential
        par_report, _ = run_matrix(parallel_matrix(), workers=workers)
        assert par_report.digest() == seq_report.digest()
        # Digest equality is full canonical equality, not a hash accident.
        assert par_report.canonical_dict() == seq_report.canonical_dict()

    def test_unshared_networks_merge_identically_too(self):
        seq_report, _ = run_matrix(parallel_matrix(), share_networks=False)
        par_report, _ = run_matrix(
            parallel_matrix(), share_networks=False, workers=2
        )
        assert par_report.digest() == seq_report.digest()

    def test_plan_cache_counters_survive_sharding_exactly(self, sequential):
        """The hard case: warm-cache counters depend on same-topology run
        order, which topology affinity preserves per shard."""
        seq_report, _ = sequential
        par_report, _ = run_matrix(parallel_matrix(), workers=3)
        assert [cell.plan_cache for cell in par_report.cells] == \
            [cell.plan_cache for cell in seq_report.cells]

    def test_single_shard_grids_run_inline(self, tmp_path):
        matrix = MatrixSpec(
            name="tiny", topologies=("complete:9",),
            strategies=("checkerboard",), base=BASE,
        )
        seq_report, _ = run_matrix(matrix)
        spool_dir = tmp_path / "spool"
        par_report, _ = run_matrix_parallel(
            matrix, workers=4, spool_dir=spool_dir
        )
        assert par_report.digest() == seq_report.digest()
        # The requested spool artifact exists even on the inline path.
        from repro.exec import load_spool, shard_spool_path
        entries = load_spool(shard_spool_path(spool_dir, 0))
        assert [position for position, _ in entries] == \
            list(range(len(seq_report)))

    def test_all_skipped_grid_yields_empty_report(self):
        matrix = MatrixSpec(
            name="skipped", topologies=("complete:9",),
            strategies=("manhattan",), base=BASE,
        )
        report, results = run_matrix(matrix, workers=2)
        assert len(report) == 0 and results == []
        assert len(report.skipped) == 1


class TestShardedOrderAndTraces:
    def test_sharded_and_sequential_orders_record_identical_traces(
        self, sequential
    ):
        """Satellite regression: seeds come from cell coordinates, so shard
        order and worker count can never change a cell's trace."""
        _, seq_results = sequential
        _, par_results = run_matrix(
            parallel_matrix(), workers=3, keep_results=True
        )
        assert len(par_results) == len(seq_results)
        for seq, par in zip(seq_results, par_results):
            assert par.spec == seq.spec
            assert par.trace.digest() == seq.trace.digest()
            assert par.to_dict() == seq.to_dict()

    def test_trace_spool_files_match_sequential_runs(
        self, sequential, tmp_path
    ):
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        run_matrix(parallel_matrix(), trace_dir=seq_dir)
        run_matrix(parallel_matrix(), trace_dir=par_dir, workers=2)
        seq_files = sorted(path.name for path in seq_dir.iterdir())
        assert seq_files == sorted(path.name for path in par_dir.iterdir())
        assert len(seq_files) == 18
        for name in seq_files:
            assert (seq_dir / name).read_text() == (par_dir / name).read_text()

    def test_worker_recorded_trace_replays_byte_exact_in_parent(
        self, tmp_path
    ):
        """Satellite: cross-process replay.  The trace file was written by a
        worker process; this (parent) process replays it byte-exact."""
        trace_dir = tmp_path / "traces"
        report, results = run_matrix(
            parallel_matrix(), workers=3, keep_results=True,
            trace_dir=trace_dir,
        )
        # Pick a faulted cell so link_down/link_up ops cross the boundary.
        position, faulted = next(
            (i, result) for i, result in enumerate(results)
            if result.spec.faults.kind == "flaps"
            and result.metrics.fault_events
        )
        spooled = Trace.from_path(trace_dir / f"cell-{position:04d}.jsonl")
        assert spooled.digest() == faulted.trace.digest()
        replayed = replay_trace(spooled)
        assert replayed.digest() == faulted.digest()
        assert json.dumps(replayed.to_dict(), sort_keys=True) == \
            json.dumps(faulted.to_dict(), sort_keys=True)


class TestProcessBoundaryPayloads:
    """Satellite: everything crossing the pool boundary pickles cleanly and
    never drags a live Network or planner along."""

    def test_cell_payloads_pickle(self):
        cells, _ = parallel_matrix().expand()
        blob = pickle.dumps(cells)
        assert [cell.spec for cell in pickle.loads(blob)] == \
            [cell.spec for cell in cells]

    def test_workload_result_pickles_without_network_references(
        self, sequential
    ):
        _, results = sequential
        result = results[0]
        blob = pickle.dumps(result)
        # A leaked Network/planner/system reference would name its module
        # here; results must stay within the workload layer and builtins.
        assert b"repro.network" not in blob
        assert b"repro.processes" not in blob
        restored = pickle.loads(blob)
        assert restored.to_dict() == result.to_dict()
        assert restored.metrics.summary() == result.metrics.summary()
        assert restored.trace.digest() == result.trace.digest()

    def test_matrix_report_pickles_round_trip(self, sequential):
        report, _ = sequential
        blob = pickle.dumps(report)
        assert b"repro.network" not in blob
        restored = pickle.loads(blob)
        assert isinstance(restored, MatrixReport)
        assert restored.to_dict() == report.to_dict()
        assert restored.digest() == report.digest()

    def test_progress_reaches_total_monotonically(self):
        seen = []
        run_matrix(
            parallel_matrix(), workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (18, 18)
        counts = [done for done, _ in seen]
        assert counts == sorted(counts)


# -- the execution-invariance contract ---------------------------------------------

TIME_MODEL = TimeModelSpec(
    default_link=LinkTiming(latency=0.0005, jitter=0.0001),
    node_service=0.0008,
)


def contract_matrix(
    topologies=("complete:16", "manhattan:4", "hypercube:4"),
) -> MatrixSpec:
    """Timed and untimed cells, faulted and fault-free, three topologies."""
    return MatrixSpec(
        name="contract",
        topologies=topologies,
        strategies=("checkerboard", "centralized"),
        fault_regimes=REGIMES[:2],
        base=dataclasses.replace(BASE, operations=40),
        time_models=(None, TIME_MODEL),
    )


def run_everything_on(matrix, root: Path, workers, pool=None):
    """One sweep with every optional section enabled at once."""
    return run_matrix_parallel(
        matrix, workers=workers, pool=pool, keep_results=True, profile=True,
        obs_dir=root / "obs", trace_dir=root / "traces",
        spool_dir=root / "spool", cache_dir=root / "cache",
    )


def cell_files(root: Path) -> dict:
    """Bytes of every file that must not depend on how the grid executed."""
    patterns = (
        "obs/spans-cell-*.jsonl", "obs/timelines-cell-*.jsonl",
        "obs/metrics.jsonl", "traces/cell-*.jsonl",
    )
    return {
        str(path.relative_to(root)): path.read_bytes()
        for pattern in patterns for path in sorted(root.glob(pattern))
    }


@pytest.fixture(scope="module")
def contract_reference(tmp_path_factory):
    """The default sweep — ``run_matrix(m)``, one in-process shard — with
    every section on."""
    root = tmp_path_factory.mktemp("contract-reference")
    report, results = run_everything_on(contract_matrix(), root, workers=1)
    return root, report, results


class TestExecutionInvarianceContract:
    """Where and how a grid executes changes nothing it reports or writes."""

    def test_reference_covers_every_section(self, contract_reference):
        root, report, results = contract_reference
        assert report.digest() == run_matrix(contract_matrix())[0].digest()
        files = cell_files(root)
        assert len(report) == len(results) == 24
        for kind in ("obs/spans-cell-", "traces/cell-"):
            assert sum(name.startswith(kind) for name in files) == 24
        # Only the timed half of the grid writes exemplar timelines.
        assert sum(n.startswith("obs/timelines-cell-") for n in files) == 12
        assert list(report.profile) == ["sequential"]
        assert (root / "obs" / "spans-shard-000.jsonl").exists()
        assert not (root / "obs" / "spans-merge.jsonl").exists()
        assert not list((root / "obs").glob("metrics-shard-*.jsonl"))

    @pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_section_on_at_once(
        self, contract_reference, tmp_path, workers, pooled
    ):
        reference_root, reference, reference_results = contract_reference
        matrix = contract_matrix()
        pool = WarmPool(workers) if pooled else None
        try:
            report, results = run_everything_on(
                matrix, tmp_path, workers, pool
            )
            # Artifact runs keep the cache write-through; a plain re-run
            # over the same directory is then served entirely from it.
            warm, _ = run_matrix_parallel(
                matrix, workers=workers, pool=pool,
                cache_dir=tmp_path / "cache",
            )
        finally:
            if pool is not None:
                pool.close()
        assert report.digest() == warm.digest() == reference.digest()
        assert report.cache_stats["stored"] == len(report)
        assert report.cache_stats["hits"] == 0
        assert warm.cache_stats["hits"] == len(report)
        assert warm.cache_stats["misses"] == 0
        assert cell_files(tmp_path) == cell_files(reference_root)
        # Kept results come back in grid position order.
        assert [result.spec for result in results] == \
            [result.spec for result in reference_results]
        assert [result.digest() for result in results] == \
            [result.digest() for result in reference_results]
        # Each shard's spool holds exactly its planned positions.
        plan = ExecutionPlan.from_matrix(matrix, workers)
        assert len(plan.shards) == workers
        spools = sorted((tmp_path / "spool").iterdir())
        assert len(spools) == workers
        for shard, spool in zip(plan.shards, spools):
            assert [position for position, _ in load_spool(spool)] == \
                [indexed.position for indexed in shard.cells]
        in_process = workers == 1 and not pooled
        assert list(report.profile) == (
            ["sequential"] if in_process
            else ["parent"] + [f"shard-{i}" for i in range(workers)]
        )
        assert (tmp_path / "obs" / "spans-merge.jsonl").exists() != in_process

    def test_repeated_topology_runs_its_cells_together(self, tmp_path):
        """A topology named twice on the axis is one group: the one-shard
        plan runs its cells back to back (not in expansion order), which
        must be as invisible as any other sharding."""
        matrix = contract_matrix(
            topologies=("complete:16", "manhattan:4", "complete:16")
        )
        plan = ExecutionPlan.from_matrix(matrix, 1)
        order = [indexed.position for indexed in plan.shards[0].cells]
        assert sorted(order) == list(range(24)) and order != sorted(order)
        one, kept_one = run_everything_on(matrix, tmp_path / "one", workers=1)
        two, kept_two = run_everything_on(matrix, tmp_path / "two", workers=2)
        assert one.digest() == two.digest()
        assert cell_files(tmp_path / "one") == cell_files(tmp_path / "two")
        assert [result.digest() for result in kept_one] == \
            [result.digest() for result in kept_two]

    def test_plain_sweeps_stay_in_process_and_file_free(
        self, tmp_path, monkeypatch
    ):
        import repro.exec.runner as runner_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a plain sweep must not spool or spawn")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", forbidden)
        monkeypatch.setattr(runner_module, "shard_spool_path", forbidden)
        monkeypatch.setattr(runner_module.tempfile, "mkdtemp", forbidden)
        monkeypatch.chdir(tmp_path)
        matrix = parallel_matrix()
        plain, _ = run_matrix(matrix)
        cold, _ = run_matrix(matrix, cache_dir=tmp_path / "cache")
        warm, _ = run_matrix(matrix, cache_dir=tmp_path / "cache")
        assert plain.digest() == cold.digest() == warm.digest()
        assert warm.cache_stats["hits"] == len(warm) == 18
        assert [path.name for path in tmp_path.iterdir()] == ["cache"]


class TestOneCellLoop:
    """The structure the contract above relies on, pinned at the AST."""

    @staticmethod
    def _functions_calling(name: str) -> list:
        callers = []
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope in ast.walk(tree):
                if not isinstance(scope, ast.FunctionDef):
                    continue
                for node in ast.walk(scope):
                    called = getattr(node, "func", None)
                    if isinstance(node, ast.Call) and name in (
                        getattr(called, "id", None),
                        getattr(called, "attr", None),
                    ):
                        callers.append(
                            f"{path.relative_to(root)}:{scope.name}"
                        )
        return callers

    def test_run_cell_has_one_caller_besides_the_warmup_replay(self):
        assert self._functions_calling("run_cell") == [
            "exec/cache.py:warmup", "exec/runner.py:run_shard",
        ]

    def test_run_matrix_has_no_loop(self):
        path = Path(repro.__file__).parent / "workload" / "matrix.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        run_matrix_def = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "run_matrix"
        )
        loops = (
            ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp,
        )
        assert not [
            node for node in ast.walk(run_matrix_def)
            if isinstance(node, loops)
        ]
        assert "exec/runner.py:run_matrix_parallel" not in \
            self._functions_calling("run_matrix")


class TestOneOpLoop:
    """The request path says each fact once, pinned at the AST: one loop
    executes ops, and hop counts are handed up, never re-read."""

    SRC = Path(repro.__file__).parent

    def test_exec_op_has_exactly_one_call_site(self):
        # One entry per call node: a second call inside _execute would
        # list it twice.
        assert TestOneCellLoop._functions_calling("_exec_op") == [
            "workload/driver.py:_execute",
        ]

    def test_driver_never_reads_hop_counters_or_keeps_baselines(self):
        tree = ast.parse((self.SRC / "workload/driver.py").read_text("utf-8"))
        attributes = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }
        names = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        assert not attributes & {"hops", "hops_for", "snapshot", "diff"}
        assert not names & {
            "load_baseline", "plan_baseline", "merge_node_load",
            "_plan_cache_delta", "QUERY", "REPLY", "PAYLOAD",
        }

    def test_matchmaker_takes_hops_from_outcomes(self):
        tree = ast.parse((self.SRC / "core/matchmaker.py").read_text("utf-8"))
        assert "hops_for" not in {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }

    def test_network_charges_the_ledger_once_per_message(self):
        tree = ast.parse((self.SRC / "network/simulator.py").read_text("utf-8"))
        charges = {}
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None)
                    in ("record", "record_delivery")
                ):
                    charges.setdefault(scope.name, []).append(node.func.attr)
        assert charges == {
            "deliver": ["record"], "query": ["record"],
            "send_payload": ["record"], "broadcast": ["record"],
        }


class TestOnePostingWriter:
    """Postings have one owner, pinned at the AST: nothing in ``src/``
    outside ``PostingStore`` reaches into a node's cache or the store's
    two keys, and no second cache implementation can be plugged in."""

    SRC = Path(repro.__file__).parent

    def test_only_the_store_touches_the_postings(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            module = path.relative_to(self.SRC).as_posix()
            if module == "network/cache.py":
                continue
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Attribute) and (
                    node.attr in ("_by_node", "_by_port", "replace_cache")
                    # ``<anything>.cache.post(...)`` / ``.cache.clear()``
                    or (node.attr in ("post", "clear")
                        and getattr(node.value, "attr", None) == "cache")
                ):
                    offenders.append(f"{module}:{node.lineno}")
                elif isinstance(node, (ast.arg, ast.keyword)) and \
                        node.arg == "cache_factory":
                    offenders.append(f"{module}:{node.lineno}")
        assert offenders == []

    def test_a_network_takes_no_cache_factory_and_has_no_node_objects(self):
        import inspect

        from repro.network.simulator import Network

        assert list(inspect.signature(Network.__init__).parameters) == [
            "self", "graph", "delivery_mode", "seed",
        ]
        assert not (self.SRC / "network/node.py").exists()
        assert not hasattr(Network, "node") and not hasattr(Network, "nodes")


class TestOneRoutingStructure:
    """A fault revision is a mask over the network's static routing table,
    pinned at the AST: nothing in ``src/repro/network/`` copies the graph
    with ``surviving_graph(...)`` but ``faults.py`` (which defines it for
    analysis and as the mask's reference) and the no-planner delivery
    functions of ``broadcast.py`` (the reference the planner is compared
    against)."""

    SRC = Path(repro.__file__).parent / "network"
    ALLOWED = {
        "faults.py": None,  # anywhere
        "broadcast.py": {"_effective_graph", "unicast"},
    }

    def test_only_the_references_copy_the_surviving_graph(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            module = path.relative_to(self.SRC).as_posix()
            allowed = self.ALLOWED.get(module, set())
            if allowed is None:
                continue
            tree = ast.parse(path.read_text("utf-8"))
            excused = {
                id(node)
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                and function.name in allowed
                for node in ast.walk(function)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in excused:
                    continue
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == \
                        "surviving_graph":
                    offenders.append(f"{module}:{node.lineno}")
        assert offenders == []
