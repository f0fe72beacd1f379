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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from trace_text import dumped

import repro
from repro.exec import ExecutionPlan, load_spool
from repro.exec.runner import run_matrix_parallel
from repro.obs.export import load_export
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

    def test_plan_cache_counters_survive_sharding_exactly(self, sequential):
        """The hard case: warm-cache counters depend on same-topology run
        order, which topology affinity preserves per shard."""
        seq_report, _ = sequential
        par_report, _ = run_matrix(parallel_matrix(), workers=3)
        assert [cell.plan_cache for cell in par_report.cells] == \
            [cell.plan_cache for cell in seq_report.cells]

    def test_single_shard_grids_run_inline(self, monkeypatch):
        import repro.exec.runner as runner_module

        matrix = MatrixSpec(
            name="tiny", topologies=("complete:9",),
            strategies=("checkerboard",), base=BASE,
        )
        seq_report, _ = run_matrix(matrix)

        def forbidden(*args, **kwargs):
            raise AssertionError("a one-shard plan must not spool")

        monkeypatch.setattr(runner_module.tempfile, "mkdtemp", forbidden)
        par_report, _ = run_matrix_parallel(matrix, workers=4)
        assert par_report.digest() == seq_report.digest()

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
            assert dumped(par.trace) == dumped(seq.trace)
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
        assert dumped(spooled) == dumped(faulted.trace)
        replayed = replay_trace(spooled)
        assert json.dumps(replayed.to_dict(), sort_keys=True) == \
            json.dumps(faulted.to_dict(), sort_keys=True)


class TestProcessBoundaryPayloads:
    """Satellite: everything crossing the process boundary pickles cleanly and
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
        assert dumped(restored.trace) == dumped(result.trace)

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


def run_everything_on(matrix, root: Path, workers, executor=None):
    """One sweep with every optional section enabled at once."""
    return run_matrix_parallel(
        matrix, workers=workers, executor=executor, keep_results=True,
        profile=True, obs_dir=root / "obs", trace_dir=root / "traces",
        cache_dir=root / "cache",
    )


def phase_counts(report) -> dict:
    """Each profile label's phases and their entry counts (the wall-clock
    seconds are the nondeterministic part)."""
    return {
        label: {name: entry["count"] for name, entry in phases.items()}
        for label, phases in report.to_dict()["profile"].items()
    }


def shard_phases(shard) -> dict:
    """What a shard of :func:`run_everything_on` times: one ``cell-run``
    per cell and one ``topology-build`` per network it builds.  Artifact
    runs never serve a cell from the cache, so no ``cache-warmup``
    replay happens."""
    topologies = {indexed.cell.topology for indexed in shard.cells}
    return {"cell-run": len(shard), "topology-build": len(topologies)}


def cell_files(root: Path) -> dict:
    """Bytes of every file that must not depend on how the grid executed."""
    patterns = ("obs/obs-cell-*.jsonl", "traces/cell-*.jsonl")
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
        for kind in ("obs/obs-cell-", "traces/cell-"):
            assert sum(name.startswith(kind) for name in files) == 24
        # Only the timed half of the grid writes exemplar timelines.
        assert sum(b'"kind": "timeline"' in data for data in files.values()) == 12
        assert list(report.to_dict()["profile"]) == ["sequential"]
        (shard,) = ExecutionPlan.from_matrix(contract_matrix(), 1).shards
        assert phase_counts(report) == {"sequential": shard_phases(shard)}
        records = load_export(root / "obs")
        assert len(records["metrics"]) == 24
        assert "merge" not in [record["name"] for record in records["span"]]

    @pytest.mark.parametrize("executor", ["none", "caller-owned"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_section_on_at_once(
        self, contract_reference, tmp_path, workers, executor, monkeypatch
    ):
        import repro.exec.runner as runner_module

        reference_root, reference, reference_results = contract_reference
        matrix = contract_matrix()
        spooled = []  # the positions each spool the merge reads holds
        real_load = runner_module.load_spool

        def recording_load(path):
            entries = real_load(path)
            spooled.append([position for position, _ in entries])
            return entries

        monkeypatch.setattr(runner_module, "load_spool", recording_load)
        shared = ProcessPoolExecutor(workers) \
            if executor == "caller-owned" else None
        try:
            report, results = run_everything_on(
                matrix, tmp_path, workers, shared
            )
            shard_spools = list(spooled)
            # Artifact runs keep the cache write-through; a plain re-run
            # over the same directory is then served entirely from it.
            warm, _ = run_matrix_parallel(
                matrix, workers=workers, executor=shared,
                cache_dir=tmp_path / "cache",
            )
        finally:
            if shared is not None:
                shared.shutdown()
        assert report.digest() == warm.digest() == reference.digest()
        assert report.cache_stats["stored"] == len(report)
        assert report.cache_stats["hits"] == 0
        assert warm.cache_stats["hits"] == len(report)
        assert warm.cache_stats["misses"] == 0
        assert cell_files(tmp_path) == cell_files(reference_root)
        # Kept results come back in grid position order.
        assert [result.spec for result in results] == \
            [result.spec for result in reference_results]
        assert [result.to_dict() for result in results] == \
            [result.to_dict() for result in reference_results]
        # Each shard's spool holds exactly its planned positions; a grid
        # that runs in this process spools nothing.
        plan = ExecutionPlan.from_matrix(matrix, workers)
        assert len(plan.shards) == workers
        in_process = workers == 1
        assert shard_spools == ([] if in_process else [
            [indexed.position for indexed in shard.cells]
            for shard in plan.shards
        ])
        assert list(report.to_dict()["profile"]) == (
            ["sequential"] if in_process
            else ["parent"] + [f"shard-{i}" for i in range(workers)]
        )
        assert phase_counts(report) == (
            {"sequential": shard_phases(plan.shards[0])} if in_process
            else {"parent": {"spool-merge": 1}, **{
                f"shard-{shard.index}": shard_phases(shard)
                for shard in plan.shards
            }}
        )
        # Only the layout's names (no part files); a merge span unless the
        # grid ran in this process.
        assert sorted(p.name for p in (tmp_path / "obs").iterdir()) == [
            f"obs-cell-{position:04d}.jsonl" for position in range(24)
        ] + ["obs-run.jsonl"] + [
            f"obs-shard-{index:03d}.jsonl" for index in range(workers)
        ]
        merges = [r for r in load_export(tmp_path / "obs")["span"]
                  if r["name"] == "merge"]
        assert len(merges) == (0 if in_process else 1)

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
        assert [result.to_dict() for result in kept_one] == \
            [result.to_dict() for result in kept_two]

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
            "self", "graph", "delivery_mode",
        ]
        assert not (self.SRC / "network/node.py").exists()
        assert not hasattr(Network, "node") and not hasattr(Network, "nodes")


class TestOneRoutingStructure:
    """A fault revision is a mask over the network's static routing table,
    pinned at the AST: no module under ``src/repro`` defines or calls a
    ``surviving_graph`` that copies the graph — the copy is the reference
    of ``tests/oracle/delivery.py`` only."""

    SRC = Path(repro.__file__).parent

    def test_only_the_references_copy_the_surviving_graph(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            module = path.relative_to(self.SRC).as_posix()
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                elif isinstance(node, ast.FunctionDef):
                    name = node.name
                else:
                    continue
                if name == "surviving_graph":
                    offenders.append(f"{module}:{node.lineno}")
        assert offenders == []


class TestTelemetryIsPassedDown:
    """The simulator looks no telemetry up, pinned at the AST: nothing under
    ``src/repro/core/`` or ``src/repro/network/`` imports the span or the
    profile module.  The workload driver binds its tracer to the network
    for one run (``network.tracer``), and the exec engine passes each
    shard's phase profile to what it times."""

    SRC = Path(repro.__file__).parent
    FORBIDDEN = ("repro.obs.spans", "repro.obs.profile")

    def imported(self, path: Path):
        """``(line, dotted name)`` of every module ``path`` imports, and of
        every name a ``from`` import takes (which may be a module)."""
        package = ["repro", *path.relative_to(self.SRC).parent.parts]
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                base = package[:len(package) + 1 - node.level] \
                    if node.level else []
                module = ".".join(base + [node.module] if node.module else base)
                yield node.lineno, module
                for alias in node.names:
                    yield node.lineno, f"{module}.{alias.name}"

    def test_core_and_network_import_no_span_or_profile_module(self):
        offenders = []
        for layer in ("core", "network"):
            for path in sorted((self.SRC / layer).rglob("*.py")):
                for line, name in self.imported(path):
                    if any(name == forbidden or name.startswith(forbidden + ".")
                           for forbidden in self.FORBIDDEN):
                        offenders.append(
                            f"{path.relative_to(self.SRC)}:{line} {name}"
                        )
        assert offenders == []

    def test_the_check_resolves_relative_imports(self):
        # The cell loop owns each shard's tracer and profile: it imports
        # both, by ``from ..obs.spans``/``from ..obs.profile``.
        runner = self.SRC / "exec" / "runner.py"
        assert set(self.FORBIDDEN) <= {name for _, name in self.imported(runner)}



class TestWorkersHoldNoState:
    """A worker keeps nothing between tasks, pinned at the AST: no
    ``repro.exec`` module binds a mutable container at module level or
    says ``global``, so no cross-task store can come back unmeasured."""

    EXEC = Path(repro.__file__).parent / "exec"
    LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                ast.SetComp)
    BUILDERS = {"dict", "list", "set", "bytearray", "defaultdict",
                "OrderedDict", "Counter", "deque", "WeakValueDictionary"}

    @classmethod
    def offenders(cls, source: str) -> list:
        tree = ast.parse(source)
        found = [f"{node.lineno}: global" for node in ast.walk(tree)
                 if isinstance(node, ast.Global)]
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            value = getattr(node, "value", None)
            func = getattr(value, "func", None)
            if [getattr(target, "id", None) for target in targets] != \
                    ["__all__"] and (isinstance(value, cls.LITERALS) or (
                        cls.BUILDERS & {getattr(func, "id", None),
                                        getattr(func, "attr", None)})):
                found.append(f"{node.lineno}: mutable")
        return found

    @pytest.mark.parametrize(
        "module", sorted(path.name for path in EXEC.glob("*.py"))
    )
    def test_no_module_level_state(self, module):
        source = (self.EXEC / module).read_text(encoding="utf-8")
        assert self.offenders(source) == []

    def test_the_check_sees_a_worker_store(self):
        source = (
            "__all__ = ['run']\nNAMES = ('a', 'b')\nSTORE: dict = {}\n"
            "SEEN = collections.defaultdict(int)\n"
            "def run():\n    global GENERATION\n    local = {}\n"
        )
        assert self.offenders(source) == \
            ["6: global", "3: mutable", "4: mutable"]
