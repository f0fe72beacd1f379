"""E22 perf ledger: six workloads, five end-to-end metrics, a per-layer ledger.

    python3 benchmarks/ledger/run.py [--seed 22] [--rounds 12]
        [--workload NAME ...] [--smoke] [--out FILE] [--write-reference]

runs, in one process, a *timing pass* (tracing off), a *count pass* (one
repetition under ``cProfile``) and a *span pass* (one repetition with
boundary wrappers installed), prints every metric as
``workload metric value unit``, checks the outputs and exits non-zero on any
check failure.  The benchmark driver's form

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S
        --trace 0|1

time-boxes the timing pass of one workload to ``S`` seconds and prints, as
the last line, one JSON object with the end-to-end metrics (``--trace 0``;
timing and count passes only) or the per-layer metrics (``--trace 1``).

Load model: closed loop, one client — this process calls the simulator and
starts the next repetition when the previous one returns.  README.md in this
directory defines every name printed here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
CHECKOUT = LEDGER_DIR.parents[1]
SRC_DIR = CHECKOUT / "src"
if str(SRC_DIR) not in sys.path:
    # The driver's command names no path outside the benchmark's own
    # directory, so the program's source root is found from here.
    sys.path.insert(0, str(SRC_DIR))
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

import ledger_trace as trace  # noqa: E402
import ledger_workloads as workloads_module  # noqa: E402
from ledger_workloads import Observation, Workload  # noqa: E402
from repro.exec import ExecutionPlan  # noqa: E402
from repro.network.delivery import plan_hit_rates  # noqa: E402
from repro.obs import host_metadata  # noqa: E402

DEFAULT_SEED = 22
DEFAULT_ROUNDS = 12
#: A time-boxed run never measures fewer rounds than this.
MIN_ROUNDS = 5
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
REFERENCE_PATH = LEDGER_DIR / "reference.json"
#: Scratch space lives inside the checkout (the driver forbids writes
#: outside it) and is removed on exit.
WORK_ROOT = CHECKOUT / ".ledger_tmp"

#: name, unit, better — the five end-to-end metrics (bounds: BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sim_req_per_s", "req/s", "higher"),
    ("py_calls_per_req", "calls/req", "lower"),
    ("hops_per_req", "hops/req", "lower"),
    ("ok_share", "ratio", "higher"),
)


def _per_layer_table() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = []
    for layer in trace.COUNT_LAYERS:
        rows.append((f"{layer}.py_calls_per_req", "calls/req", "lower"))
    for layer in trace.BOUNDARIES:
        rows.append((f"{layer}.calls_per_req", "calls/req", "lower"))
        rows.append((f"{layer}.self_us_per_req", "us/req", "lower"))
    rows += [
        ("failed_share", "ratio", "lower"),
        ("processes.system.writes_per_req", "calls/req", "lower"),
        ("processes.system.write_self_us_per_op", "us/op", "lower"),
        ("processes.system.stale_retries_per_req", "count/req", "lower"),
        ("core.matchmaker.pq_memo_hit_ratio", "ratio", "higher"),
        ("network.simulator.node_is_up_per_req", "calls/req", "lower"),
        ("network.delivery.plan_hit_ratio", "ratio", "higher"),
        ("network.delivery.route_hit_ratio", "ratio", "higher"),
        ("network.cache.lookup_hit_ratio", "ratio", "higher"),
        ("obs.registry.bumps_per_req", "calls/req", "lower"),
        ("simtime.binding.sim_latency_p50_us", "us", "lower"),
        ("simtime.binding.sim_latency_p99_us", "us", "lower"),
        ("simtime.kernel.events_per_req", "calls/req", "lower"),
        ("simtime.queueing.acquires_per_req", "calls/req", "lower"),
        ("simtime.queueing.sim_queue_wait_p99_us", "us", "lower"),
        ("workload.matrix.self_ms_per_sweep", "ms/sweep", "lower"),
        ("exec.plan.shards", "count", "higher"),
        ("exec.plan.lpt_skew", "ratio", "lower"),
        ("exec.runner.self_ms_per_sweep", "ms/sweep", "lower"),
        ("exec.spool.load_ms_per_sweep", "ms/sweep", "lower"),
        ("exec.cache.hit_ratio", "ratio", "higher"),
        ("exec.cache.load_us_per_cell", "us/cell", "lower"),
        ("exec.cache.key_us_per_cell", "us/cell", "lower"),
        ("exec.cache.store_us_per_cell", "us/cell", "lower"),
        ("topologies.build_ms", "ms/rep", "lower"),
        ("bench.import_s", "s", "lower"),
        ("bench.peak_alloc_kb", "KiB", "lower"),
        ("bench.rep_wall_s_p50", "s", "lower"),
        ("bench.rep_wall_iqr_ratio", "ratio", "lower"),
        ("bench.span_overhead_ratio", "ratio", "lower"),
        ("bench.profile_overhead_ratio", "ratio", "lower"),
        ("bench.timed_untimed_ratio", "ratio", "lower"),
        ("bench.par_speedup", "ratio", "higher"),
        ("bench.warm_speedup", "ratio", "higher"),
        ("bench.sim_drift_fields", "count", "lower"),
    ]
    return tuple(rows)


#: name, unit, better — every per-layer metric, reported for every workload
#: (0 where the layer does no work; -1 for a drift comparison that was
#: skipped).
PER_LAYER = _per_layer_table()


def iqr_ratio(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class WorkloadRun:
    """Everything measured about one workload in this process."""

    workload: Workload
    setup_samples: List[float] = field(default_factory=list)
    #: First repetition's observation; every later repetition must
    #: reproduce its fingerprint (check 1).
    baseline: Optional[Observation] = None
    baseline_fingerprint: str = ""
    walls: List[float] = field(default_factory=list)
    twin_walls: List[float] = field(default_factory=list)
    #: Simulated requests over every checked repetition, and how many of
    #: them sat in a repetition that raised or failed a check.
    attempted: int = 0
    failed: int = 0
    sim_failed: int = 0
    problems: List[str] = field(default_factory=list)
    profile_wall: float = 0.0
    calls_total: int = 0
    calls_by_layer: Dict[str, int] = field(default_factory=dict)
    calls_by_function: Dict[Tuple[str, str], int] = field(default_factory=dict)
    tracer: Optional[trace.SpanTracer] = None
    span_wall: float = 0.0
    probe: Dict[str, object] = field(default_factory=dict)
    traced: Optional[Observation] = None
    peak_alloc_kb: float = 0.0

    @property
    def name(self) -> str:
        return self.workload.name

    # -- one checked repetition -------------------------------------------------

    def repetition(
        self, call: Optional[Callable[[], object]] = None
    ) -> Tuple[float, Optional[Observation]]:
        """Run one repetition and apply the within-run output checks.

        ``call`` substitutes an instrumented form of the workload's single
        public call (its return value is still the call's output).  Returns
        the wall time and the observation (``None`` when it raised).
        """
        workload = self.workload
        gc.collect()  # start every repetition from the same heap; GC stays on
        self.attempted += workload.requests
        started = time.perf_counter()
        try:
            output = (call or workload.repeat)()
        except Exception:  # a repetition that raised is a failed repetition
            self.failed += workload.requests
            self.problems.append(
                f"repetition raised:\n{traceback.format_exc()}"
            )
            return time.perf_counter() - started, None
        wall = time.perf_counter() - started
        observed = workload.observe(output)
        problems = list(observed.problems)
        observed_fingerprint = workloads_module.fingerprint(observed.fields)
        if self.baseline is None:
            self.baseline = observed
            self.baseline_fingerprint = observed_fingerprint
        elif observed_fingerprint != self.baseline_fingerprint:
            moved = sorted(
                key for key in observed.fields
                if observed.fields[key] != self.baseline.fields.get(key)
            )
            problems.append(
                f"summary fingerprint differs from the first repetition "
                f"(fields {moved or '?'})"
            )
        if problems:
            self.failed += workload.requests
            self.problems.extend(problems)
        else:
            self.sim_failed += observed.sim_failed
        return wall, observed

    # -- metrics ----------------------------------------------------------------

    def failed_share(self) -> float:
        return ratio(self.sim_failed + self.failed, self.attempted)

    def end_to_end(self) -> Dict[str, float]:
        base = self.baseline
        return {
            "setup_s": statistics.median(self.setup_samples),
            "sim_req_per_s": ratio(self.workload.requests, min(self.walls)),
            "py_calls_per_req": self.calls_total / self.workload.requests,
            "hops_per_req": ratio(base.hops, base.hop_samples) if base else 0.0,
            "ok_share": 1.0 - self.failed_share(),
        }

    def function_calls(self, layer: str, function: str) -> int:
        return self.calls_by_function.get((layer, function), 0)

    def per_layer(self, import_s: float, drift_fields: int) -> Dict[str, float]:
        workload, requests = self.workload, self.workload.requests
        sweeps = workload.sweeps
        metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
        for layer, calls in self.calls_by_layer.items():
            metrics[f"{layer}.py_calls_per_req"] = calls / requests
        spans = self.tracer.layer_totals(1)
        setup_spans = self.tracer.function_totals(0)
        functions = self.tracer.function_totals(1)
        for layer, (calls, self_ns) in spans.items():
            metrics[f"{layer}.calls_per_req"] = calls / requests
            metrics[f"{layer}.self_us_per_req"] = self_ns / 1e3 / requests

        def self_ms(layer: str) -> float:
            return spans.get(layer, (0, 0))[1] / 1e6

        def self_us_per_call(totals, function: str) -> float:
            calls, self_ns = totals.get(function, (0, 0))
            return ratio(self_ns / 1e3, calls)

        writes = [functions.get(name, (0, 0)) for name in trace.WRITE_SPANS]
        write_calls = sum(calls for calls, _ in writes)
        observed = self.traced or self.baseline
        plan_rates = plan_hit_rates(observed.plan_events)
        fields = observed.fields
        cache = observed.cache_stats
        memo = [maker.pq_cache_info() for maker in self.probe["makers"].values()]
        pq_hits = sum(info["hits"] for info in memo)
        pq_misses = sum(info["misses"] for info in memo)
        metrics.update({
            "failed_share": self.failed_share(),
            "processes.system.writes_per_req": write_calls / requests,
            "processes.system.write_self_us_per_op": ratio(
                sum(self_ns for _, self_ns in writes) / 1e3, write_calls
            ),
            "processes.system.stale_retries_per_req":
                observed.stale_retries / requests,
            "core.matchmaker.pq_memo_hit_ratio":
                ratio(pq_hits, pq_hits + pq_misses),
            "network.simulator.node_is_up_per_req":
                self.function_calls("network.simulator", "node_is_up") / requests,
            "network.delivery.plan_hit_ratio": plan_rates["plan"],
            "network.delivery.route_hit_ratio": plan_rates["route"],
            "network.cache.lookup_hit_ratio":
                ratio(self.probe["answered"], self.probe["queried"]),
            "obs.registry.bumps_per_req":
                self.function_calls("obs.registry", "bump") / requests,
            "simtime.binding.sim_latency_p50_us": fields.get("latency_p50_us", 0),
            "simtime.binding.sim_latency_p99_us": fields.get("latency_p99_us", 0),
            "simtime.kernel.events_per_req":
                self.function_calls("simtime.kernel", "schedule") / requests,
            "simtime.queueing.acquires_per_req":
                functions.get("FifoResource.acquire", (0, 0))[0] / requests,
            "simtime.queueing.sim_queue_wait_p99_us":
                fields.get("queue_wait_p99_us", 0),
            "workload.matrix.self_ms_per_sweep":
                ratio(self_ms("workload.matrix"), sweeps),
            "exec.runner.self_ms_per_sweep": ratio(self_ms("exec.runner"), sweeps),
            "exec.spool.load_ms_per_sweep": ratio(self_ms("exec.spool"), sweeps),
            "exec.cache.hit_ratio": ratio(
                cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
            ),
            "exec.cache.load_us_per_cell":
                self_us_per_call(functions, "CellCache.load"),
            "exec.cache.key_us_per_cell":
                self_us_per_call(functions, "CellKeyer.key"),
            # Stores only happen while set-up fills the cache (repetition 0).
            "exec.cache.store_us_per_cell":
                self_us_per_call(setup_spans, "CellCache.store"),
            "topologies.build_ms": self_ms("topologies"),
            "bench.import_s": import_s,
            "bench.peak_alloc_kb": self.peak_alloc_kb,
            "bench.rep_wall_s_p50": statistics.median(self.walls),
            "bench.rep_wall_iqr_ratio": iqr_ratio(self.walls),
            "bench.span_overhead_ratio":
                ratio(self.span_wall, statistics.median(self.walls)),
            "bench.profile_overhead_ratio":
                ratio(self.profile_wall, statistics.median(self.walls)),
            "bench.sim_drift_fields": drift_fields,
        })
        if workload.name == "matrix_par2":
            plan = ExecutionPlan.from_matrix(
                workload.matrix, workloads_module.PAR_WORKERS
            )
            sizes = [len(shard) for shard in plan.shards]
            metrics["exec.plan.shards"] = len(sizes)
            metrics["exec.plan.lpt_skew"] = ratio(
                max(sizes), sum(sizes) / len(sizes)
            )
        if self.twin_walls:
            # Each ratio is a workload against its twin, min wall over min
            # wall; a warm sweep is one of the repetition's ``sweeps``.
            twin, own = min(self.twin_walls), min(self.walls)
            if workload.name == "timed_burst":
                metrics["bench.timed_untimed_ratio"] = ratio(own, twin)
            elif workload.name == "matrix_par2":
                metrics["bench.par_speedup"] = ratio(twin, own)
            elif workload.name == "matrix_warm":
                metrics["bench.warm_speedup"] = ratio(twin, own / sweeps)
        return metrics


# -- passes -----------------------------------------------------------------------

def setup_pass(runs: List[WorkloadRun], workdir: Path, repeats: int) -> None:
    """``prepare()`` plus one discarded warm-up repetition, ``repeats`` times."""
    for run in runs:
        for attempt in range(repeats):
            started = time.perf_counter()
            run.workload.prepare(workdir / f"{run.name}-setup{attempt}")
            run.repetition()
            run.setup_samples.append(time.perf_counter() - started)


def timing_pass(
    runs: List[WorkloadRun],
    rounds: Optional[int],
    seconds: Optional[float],
    twins: bool,
) -> None:
    """Round-robin repetitions, tracing off.

    A round runs one repetition of every workload in the fixed order, so a
    noisy minute on the host is spread over all workloads instead of landing
    on one.  With ``seconds`` the pass stops after the first round that ends
    past the deadline (but never before :data:`MIN_ROUNDS`).
    """
    started = time.perf_counter()
    completed = 0

    def finished() -> bool:
        if seconds is None:
            return completed >= rounds
        return completed >= MIN_ROUNDS and \
            time.perf_counter() - started >= seconds

    while not finished():
        for run in runs:
            wall, _ = run.repetition()
            run.walls.append(wall)
            twin = run.workload.twin() if twins else None
            if twin is not None:
                gc.collect()
                twin_started = time.perf_counter()
                twin()
                run.twin_walls.append(time.perf_counter() - twin_started)
        completed += 1


def count_pass(run: WorkloadRun) -> None:
    """One repetition under ``cProfile``: exact call counts per layer."""
    counts = []

    def profiled():
        output, *counted = trace.count_calls(run.workload.repeat)
        counts.extend(counted)
        return output

    run.profile_wall, _ = run.repetition(profiled)
    if counts:  # empty when the repetition raised
        run.calls_total, run.calls_by_layer, run.calls_by_function = counts


def span_pass(run: WorkloadRun, workdir: Path) -> None:
    """A traced set-up (repetition id 0) and one traced repetition (id 1)."""
    run.probe = {"makers": {}, "answered": 0, "queried": 0}
    probe = run.probe

    def keep_maker(args, result):
        probe["makers"][id(args[0])] = args[0]

    def count_answers(args, result):
        probe["answered"] += len(result.responding_nodes)
        probe["queried"] += len(result.queried_nodes)

    tracer = run.tracer = trace.SpanTracer()
    tracer.install(
        run.workload.strategy_classes(),
        run.workload.span_layers,
        probes={
            "repro.core.matchmaker:MatchMaker.locate": keep_maker,
            "repro.network.simulator:Network.query": count_answers,
        },
    )
    try:
        run.workload.prepare(workdir / f"{run.name}-span")
        probe["makers"].clear()
        probe["answered"] = probe["queried"] = 0
        tracer.repetition = 1
        run.span_wall, run.traced = run.repetition()
    finally:
        tracer.uninstall()


def alloc_pass(run: WorkloadRun) -> None:
    """``tracemalloc`` peak over one extra repetition."""
    tracemalloc.start()
    try:
        run.repetition()
        run.peak_alloc_kb = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def import_seconds() -> float:
    """Fresh-interpreter import cost of the program, minus interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))

    def best(code: str) -> float:
        walls = []
        for _ in range(2):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            walls.append(time.perf_counter() - started)
        return min(walls)

    return best("import repro.workload, repro.exec, repro.simtime") - best("pass")


# -- reference --------------------------------------------------------------------

def exact_values(run: WorkloadRun) -> Dict[str, object]:
    """What ``reference.json`` pins per workload: the exact metrics."""
    end_to_end = run.end_to_end()
    return {
        "fingerprint": run.baseline_fingerprint,
        "fields": run.baseline.fields,
        "py_calls_per_req": end_to_end["py_calls_per_req"],
        "hops_per_req": end_to_end["hops_per_req"],
        "ok_share": end_to_end["ok_share"],
        "failed_share": run.failed_share(),
    }


def drift_fields(run: WorkloadRun, reference: Optional[dict]) -> int:
    """Fingerprint fields that differ from ``reference.json`` (-1: skipped)."""
    pinned = (reference or {}).get("workloads", {}).get(run.name)
    if pinned is None:
        return -1
    fields = run.baseline.fields
    return sum(
        1 for key in set(fields) | set(pinned["fields"])
        if fields.get(key) != pinned["fields"].get(key)
    )


# -- command line -----------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"timed rounds (default {DEFAULT_ROUNDS}; 2 with --smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the timing pass instead of counting rounds")
    parser.add_argument("--workload", action="append", default=None,
                        choices=workloads_module.WORKLOAD_NAMES, metavar="NAME",
                        help="run only these workloads (round-robin order is kept)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 = end-to-end JSON line (no span "
                             "pass), 1 = per-layer JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="operations / 20, 2 rounds, 9-cell grid, one "
                             "set-up, no tracemalloc/import probes")
    parser.add_argument("--out", type=Path, default=None,
                        help="write samples, metrics and spans as JSON")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"regenerate {REFERENCE_PATH.name} (default seed only)")
    args = parser.parse_args(argv)
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.rounds is not None and args.seconds is not None:
        parser.error("--rounds and --seconds exclude each other")
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.write_reference and (
        args.seed != DEFAULT_SEED or args.smoke or args.workload
    ):
        parser.error("--write-reference needs the default seed and every "
                     "full-size workload")
    return args


def run_ledger(args: argparse.Namespace, workdir: Path) -> Tuple[dict, List[WorkloadRun]]:
    """All passes over the selected workloads; returns the report and runs."""
    spans_wanted = args.trace != 0
    names = args.workload or workloads_module.WORKLOAD_NAMES
    runs = [
        WorkloadRun(workload)
        for workload in workloads_module.build_workloads(
            args.seed, names, args.smoke
        )
    ]
    rounds = args.rounds
    if rounds is None and args.seconds is None:
        rounds = 2 if args.smoke else DEFAULT_ROUNDS

    setup_pass(runs, workdir, 1 if args.smoke else SETUP_REPEATS)
    timing_pass(runs, rounds, args.seconds, twins=spans_wanted)
    # --smoke leaves out the two slowest probes (tracemalloc runs ~4x slower,
    # the import probe starts four interpreters); both then read 0.
    probes_wanted = spans_wanted and not args.smoke
    for run in runs:
        count_pass(run)
        if spans_wanted:
            span_pass(run, workdir)
        if probes_wanted:
            alloc_pass(run)
    import_s = import_seconds() if probes_wanted else 0.0

    reference = None
    if args.seed == DEFAULT_SEED and not args.smoke and REFERENCE_PATH.exists():
        reference = json.loads(REFERENCE_PATH.read_text())
    digests = {
        run.name: run.baseline.digest for run in runs
        if run.baseline is not None and run.baseline.digest
    }
    if len(set(digests.values())) > 1:
        for run in runs:
            if run.name in digests:
                run.problems.append(f"matrix report digests differ: {digests}")

    report = {
        "host": host_metadata(),
        "seed": args.seed,
        "smoke": args.smoke,
        "rounds": max((len(run.walls) for run in runs), default=0),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "workloads": {},
    }
    for run in runs:
        section = {
            "why": workloads_module.WHY[run.name],
            "requests_per_repetition": run.workload.requests,
            "attempted": run.attempted,
            "failed": run.failed,
            "correct": not run.problems,
            "problems": run.problems,
            "wall_s": {
                "samples": run.walls,
                "count": len(run.walls),
                "min": min(run.walls),
                "median": statistics.median(run.walls),
                "p75": statistics.quantiles(run.walls, n=4)[2]
                if len(run.walls) > 1 else run.walls[0],
            },
            "setup_s_samples": run.setup_samples,
            "exact": exact_values(run) if run.baseline else {},
            "end_to_end": run.end_to_end(),
        }
        if spans_wanted:
            section["per_layer"] = run.per_layer(
                import_s, drift_fields(run, reference)
            )
        report["workloads"][run.name] = section
    return report, runs


def print_report(report: dict) -> None:
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    for name, section in report["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            for metric, value in section.get(group, {}).items():
                print(f"{name} {metric} {value:.6g} {units[metric]}")
        wall = section["wall_s"]
        print(
            f"{name} wall_s count={wall['count']} min={wall['min']:.4f} "
            f"median={wall['median']:.4f} p75={wall['p75']:.4f}"
        )
        for problem in section["problems"]:
            print(f"{name} CHECK FAILED: {problem}")


def driver_line(section: dict, trace_flag: int) -> str:
    """The one-line JSON result the benchmark driver reads."""
    group, table = (
        ("per_layer", PER_LAYER) if trace_flag else ("end_to_end", END_TO_END)
    )
    values = section[group]
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _ in table
    }
    return json.dumps({
        "correct": section["correct"],
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": metrics,
    })


@contextlib.contextmanager
def scratch_directory():
    """One directory for cell caches *and* the spools ``run_matrix`` creates
    through ``tempfile``; removed on exit even after a failed check."""
    WORK_ROOT.mkdir(exist_ok=True)
    previous = tempfile.tempdir
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
            tempfile.tempdir = scratch
            yield Path(scratch)
    finally:
        tempfile.tempdir = previous
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    with scratch_directory() as scratch:
        report, runs = run_ledger(args, scratch)

    print(f"# host {json.dumps(report['host'], sort_keys=True)}")
    print(f"# seed {report['seed']} rounds {report['rounds']} "
          f"PYTHONHASHSEED {report['pythonhashseed']}")
    print_report(report)
    if args.trace != 0 and not any(
        section["per_layer"]["bench.sim_drift_fields"] >= 0
        for section in report["workloads"].values()
    ):
        print("# drift comparison skipped: reference.json pins the full-size "
              f"run at --seed {DEFAULT_SEED} only")
    correct = all(s["correct"] for s in report["workloads"].values())

    if args.write_reference and correct:
        pinned = {
            "seed": args.seed,
            "host": report["host"],
            "workloads": {
                name: section["exact"]
                for name, section in report["workloads"].items()
            },
        }
        REFERENCE_PATH.write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n"
        )
        print(f"# wrote {REFERENCE_PATH}")
    if args.out is not None:
        for run in runs:
            if run.tracer is not None:
                report["workloads"][run.name]["spans"] = run.tracer.dump()
        args.out.write_text(json.dumps(report) + "\n")
    print(f"# total {time.perf_counter() - started:.1f} s, "
          f"{'all checks passed' if correct else 'CHECKS FAILED'}")
    if args.trace is not None:
        (section,) = report["workloads"].values()
        print(driver_line(section, args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
