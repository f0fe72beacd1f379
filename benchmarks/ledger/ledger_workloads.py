"""The six E22 workloads: literal inputs, the single timed call, the checks.

Every spec below is a literal owned by this directory — nothing is imported
from ``benchmarks/test_bench_e*.py``, which later PRs may change or delete.
``--seed S`` is the only randomness input: each workload's
``ScenarioSpec.seed`` is ``derive_seed(S, key)`` and the program under test
only ever sees the finished specs.

A :class:`Workload` knows three things: how to set itself up
(:meth:`~Workload.prepare`), the one public call a repetition times
(:meth:`~Workload.repeat`), and how to read that call's output back into
plain numbers (:meth:`~Workload.observe`) — the simulated statistics the
ledger reports and the fingerprint fields it checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.workload.matrix as matrix_module
from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    WorkloadDriver,
    build_strategy,
    build_topology,
)

#: Fixed round-robin order; names later issues quote — do not rename.
WORKLOAD_NAMES = (
    "locate_flood",
    "faulted_churn",
    "timed_burst",
    "matrix_seq",
    "matrix_par2",
    "matrix_warm",
)

#: Why each workload exists (also the ``why`` lines of ``BENCHMARK.json``).
WHY = {
    "locate_flood": (
        "healthy complete:64 network, every request a full sqrt(n) locate: "
        "network.simulator + core.matchmaker + obs.registry do the work; "
        "simtime, exec, faults and the write path do none"
    ),
    "faulted_churn": (
        "multi-hop unicast on manhattan:8 under link flaps and mixed churn: "
        "network.delivery/routing/faults plus the write path; a read-path "
        "gain bought by dearer writes or invalidation shows as a loss here"
    ),
    "timed_burst": (
        "the E20 shape: bursts priced by the time model, so simtime.binding/"
        "queueing/kernel and obs.timeline are most of the cost; untimed-path "
        "optimisations should move it little"
    ),
    "matrix_seq": (
        "the 27-cell E18 grid through the default sequential sweep: "
        "workload.matrix loop, shared networks, reset_for_reuse, report "
        "aggregation; baseline for the two below"
    ),
    "matrix_par2": (
        "same grid with workers=2 and a fresh executor per sweep: exec.plan "
        "sharding, process spawn, pickling, spools, merge - what --workers "
        "costs a CLI user"
    ),
    "matrix_warm": (
        "same grid re-run 20 times against a cache filled in set-up: "
        "exec.cache keying/loading and MatrixReport only (100% hits)"
    ),
}

#: ``matrix_warm`` re-runs the sweep this many times per repetition, so one
#: repetition is long enough to time (a warm sweep is ~20 ms).
WARM_SWEEPS = 20
#: Worker count of ``matrix_par2`` (= nproc on the 2-CPU reference host).
PAR_WORKERS = 2
#: ``--smoke`` divides scenario sizes by this and shrinks the grid to 9 cells.
SMOKE_DIVISOR = 20


def derive_seed(master: int, key: str) -> int:
    """The spec seed for ``key`` under master seed ``master`` (sha256, 63 bits).

    The benchmark's own derivation, not ``repro.workload.stable_seed``: a
    later change to the program's helper must not move the benchmark's inputs.
    """
    digest = hashlib.sha256(f"{master}/{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def fingerprint(fields: Dict[str, object]) -> str:
    """sha256 over the benchmark's own canonical JSON of ``fields``."""
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- literal inputs ---------------------------------------------------------------

def locate_flood_spec(seed: int, smoke: bool = False) -> ScenarioSpec:
    return ScenarioSpec(
        name="locate_flood",
        topology="complete:64",
        strategy="checkerboard",
        operations=17_000 // (SMOKE_DIVISOR if smoke else 1),
        clients=64,
        servers=8,
        ports=8,
        delivery_mode="ideal",
        seed=seed,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=2000.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
    )


def faulted_churn_spec(seed: int, smoke: bool = False) -> ScenarioSpec:
    return ScenarioSpec(
        name="faulted_churn",
        topology="manhattan:8",
        strategy="manhattan",
        operations=12_000 // (SMOKE_DIVISOR if smoke else 1),
        clients=24,
        servers=8,
        ports=4,
        delivery_mode="unicast",
        seed=seed,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=1000.0),
        popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.7),
        churn=ChurnSpec(kind="mixed", rate=6.0),
        faults=FaultRegimeSpec(
            kind="flaps", events=10, start=0.3, period=0.5, downtime=0.3
        ),
    )


def timed_burst_spec(seed: int, smoke: bool = False) -> ScenarioSpec:
    return ScenarioSpec(
        name="timed_burst",
        topology="complete:36",
        strategy="checkerboard",
        operations=3_000 // (SMOKE_DIVISOR if smoke else 1),
        clients=36,
        servers=6,
        ports=6,
        delivery_mode="ideal",
        seed=seed,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="burst", burst_size=80, burst_gap=0.05),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        time_model=TimeModelSpec(
            default_link=LinkTiming(latency=0.0005, jitter=0.0001),
            node_service=0.0008,
        ),
    )


def grid_spec(seed: int, smoke: bool = False) -> MatrixSpec:
    """The E18 grid, copied literally (27 cells x 500 requests).

    ``--smoke`` keeps all three topologies (so ``matrix_par2`` still plans
    two shards) and all three regimes but only the first strategy: 9 cells.
    """
    strategies = ("checkerboard", "hash-locate", "centralized")
    return MatrixSpec(
        name="e22",
        topologies=("complete:36", "manhattan:6", "hypercube:5"),
        strategies=strategies[:1] if smoke else strategies,
        fault_regimes=(
            FaultRegimeSpec(),
            FaultRegimeSpec(kind="waves", events=3, size=2, start=0.08,
                            period=0.15, downtime=0.1),
            FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12,
                            downtime=0.08),
        ),
        base=ScenarioSpec(
            operations=500 // (SMOKE_DIVISOR if smoke else 1),
            clients=12,
            servers=8,
            ports=4,
            delivery_mode="unicast",
            seed=seed,
            arrival=ArrivalSpec(kind="poisson", rate=1500.0),
            popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        ),
    )


# -- what one repetition produced -------------------------------------------------

@dataclass
class Observation:
    """One repetition's output, read back into plain numbers."""

    #: Simulated requests that ended ``ok=False`` (a simulated statistic).
    sim_failed: int
    #: Sum of ``request_hops.mean x count`` and of ``count`` over summaries.
    hops: float
    hop_samples: int
    #: Fingerprint fields (check 1: identical in every repetition).
    fields: Dict[str, object]
    #: Within-run check failures (checks 3 and 4), as readable sentences.
    problems: List[str] = field(default_factory=list)
    #: Per-layer extras read from the output, not from tracing.
    stale_retries: int = 0
    plan_events: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def digest(self) -> Optional[str]:
        """``MatrixReport.digest()`` for matrix workloads, else ``None``."""
        return self.fields.get("report_digest")


def _scenario_fields(summary: Dict[str, object]) -> Dict[str, object]:
    fields = {
        "requests": summary["requests"],
        "successes": summary["successes"],
        "locates": summary["locates"],
        "stale_retries": summary["stale_retries"],
        "cache_hits": summary["cache_hits"],
        "load_max": summary["load"]["max"],
    }
    for family in ("locate_hops", "request_hops"):
        for key in ("mean", "p50", "p95", "p99", "max"):
            fields[f"{family}_{key}"] = summary[family][key]
    if "latency" in summary:
        for key in ("p50", "p99", "p999"):
            fields[f"latency_{key}_us"] = summary["latency"][key]
        fields["queue_wait_p99_us"] = summary["queues"]["wait_us"]["p99"]
    return fields


class Workload:
    """Interface of one named workload (see the module docstring)."""

    name: str
    #: Simulated requests one repetition stands for.
    requests: int
    #: ``run_matrix`` calls per repetition (0 for scenario workloads).
    sweeps = 0
    #: Layers whose boundaries may be wrapped (``None`` = all of them).
    span_layers = None

    def prepare(self, workdir: Path) -> None:
        """Build everything the repetitions reuse; may write under ``workdir``."""

    def repeat(self) -> object:
        raise NotImplementedError

    def observe(self, output: object) -> Observation:
        raise NotImplementedError

    def twin(self) -> Optional[Callable[[], object]]:
        """A comparison run for a ``bench.`` ratio; not a workload."""
        return None

    def strategy_classes(self) -> List[type]:
        raise NotImplementedError


class ScenarioWorkload(Workload):
    """``WorkloadDriver(spec).run()`` on one literal scenario."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.name = spec.name
        self.spec = spec
        self.requests = spec.operations

    def repeat(self):
        return WorkloadDriver(self.spec).run()

    def observe(self, output) -> Observation:
        summary = output.summary()
        hops = summary["request_hops"]
        problems = []
        if summary["requests"] != self.spec.operations:
            problems.append(
                f"requests {summary['requests']} != operations "
                f"{self.spec.operations}"
            )
        return Observation(
            sim_failed=summary["failures"],
            hops=hops["mean"] * hops["count"],
            hop_samples=hops["count"],
            fields=_scenario_fields(summary),
            problems=problems,
            stale_retries=summary["stale_retries"],
            plan_events=dict(output.plan_cache),
        )

    def twin(self):
        if self.spec.time_model is None:
            return None
        untimed = replace(self.spec, time_model=None)
        return lambda: WorkloadDriver(untimed).run()

    def strategy_classes(self):
        topology = build_topology(self.spec.topology)
        return [type(build_strategy(self.spec.strategy, topology))]


class MatrixWorkload(Workload):
    """``run_matrix`` over the E18 grid: sequential, 2 workers, or warm cache."""

    def __init__(self, name: str, matrix: MatrixSpec, sweeps: int = 1) -> None:
        self.name = name
        self.matrix = matrix
        cells, _ = matrix.expand()
        self.cells = len(cells)
        self.sweeps = sweeps
        self.requests = self.cells * matrix.base.operations * self.sweeps
        if name == "matrix_par2":
            # Forked workers must run unwrapped.
            self.span_layers = (
                "workload.matrix", "exec.plan", "exec.runner", "exec.spool",
                "exec.cache",
            )
        self.cache_dir: Optional[Path] = None
        #: Digest of a sequential sweep made in set-up (check 2).
        self.sequential_digest: Optional[str] = None

    def _sequential(self):
        return matrix_module.run_matrix(self.matrix)[0]

    def prepare(self, workdir: Path) -> None:
        if self.name == "matrix_par2":
            self.sequential_digest = self._sequential().digest()
        elif self.name == "matrix_warm":
            self.cache_dir = workdir / "cell-cache"
            cold, _ = matrix_module.run_matrix(
                self.matrix, cache_dir=self.cache_dir
            )
            self.sequential_digest = cold.digest()

    def repeat(self):
        if self.name == "matrix_seq":
            return self._sequential()
        if self.name == "matrix_par2":
            return matrix_module.run_matrix(self.matrix, workers=PAR_WORKERS)[0]
        report = None
        for _ in range(self.sweeps):
            report, _ = matrix_module.run_matrix(
                self.matrix, cache_dir=self.cache_dir
            )
        return report

    def observe(self, output) -> Observation:
        summaries = [cell.summary for cell in output.cells]
        problems = []
        operations = self.matrix.base.operations
        wrong = [s["name"] for s in summaries if s["requests"] != operations]
        if len(summaries) != self.cells or wrong:
            problems.append(
                f"{len(summaries)} cells (want {self.cells}); cells with "
                f"requests != operations: {wrong}"
            )
        cache_stats = output.cache_stats or {}
        if self.name == "matrix_warm" and (
            cache_stats.get("hits") != self.cells or cache_stats.get("misses")
        ):
            problems.append(
                f"warm sweep was not 100% hits: {cache_stats} "
                f"(want hits={self.cells}, misses=0)"
            )
        digest = output.digest()
        if self.sequential_digest not in (None, digest):
            problems.append(
                f"report digest {digest[:12]} != sequential "
                f"{self.sequential_digest[:12]}"
            )
        totals = {
            key: sum(s[key] for s in summaries)
            for key in ("requests", "successes", "failures", "locates",
                        "stale_retries", "cache_hits")
        }
        hops = sum(s["request_hops"]["mean"] * s["request_hops"]["count"]
                   for s in summaries)
        hop_samples = sum(s["request_hops"]["count"] for s in summaries)
        fields = {key: totals[key] for key in totals if key != "failures"}
        fields["cells"] = len(summaries)
        fields["request_hops_total"] = round(hops, 3)
        fields["report_digest"] = digest
        return Observation(
            sim_failed=totals["failures"] * self.sweeps,
            hops=hops,
            hop_samples=hop_samples,
            fields=fields,
            problems=problems,
            stale_retries=totals["stale_retries"] * self.sweeps,
            plan_events=dict(output.plan_cache_events()),
            cache_stats=dict(cache_stats),
        )

    def twin(self):
        return None if self.name == "matrix_seq" else self._sequential

    def strategy_classes(self):
        classes = []
        for topology_name in self.matrix.topologies:
            topology = build_topology(topology_name)
            for strategy_name in self.matrix.strategies:
                kind = type(build_strategy(strategy_name, topology))
                if kind not in classes:
                    classes.append(kind)
        return classes


def build_workloads(
    seed: int, names=WORKLOAD_NAMES, smoke: bool = False
) -> List[Workload]:
    """The selected workloads, always in the fixed round-robin order.

    The three matrix workloads share one grid seed: their report digests
    must be equal (check 2).
    """
    unknown = sorted(set(names) - set(WORKLOAD_NAMES))
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; expected {list(WORKLOAD_NAMES)}"
        )
    scenario_specs = {
        "locate_flood": locate_flood_spec,
        "faulted_churn": faulted_churn_spec,
        "timed_burst": timed_burst_spec,
    }
    workloads: List[Workload] = []
    for name in WORKLOAD_NAMES:
        if name not in names:
            continue
        if name in scenario_specs:
            spec = scenario_specs[name](derive_seed(seed, name), smoke)
            workloads.append(ScenarioWorkload(spec))
        else:
            grid = grid_spec(derive_seed(seed, "matrix"), smoke)
            sweeps = 1
            if name == "matrix_warm":
                sweeps = 2 if smoke else WARM_SWEEPS
            workloads.append(MatrixWorkload(name, grid, sweeps))
    return workloads
