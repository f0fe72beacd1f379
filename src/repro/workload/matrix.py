"""The scenario-matrix engine: grids of workloads, run comparably.

The paper's central claim is a *trade-off*: match-making cost and robustness
move against each other as the rendezvous strategy and the topology change.
One hand-picked (topology, strategy, fault) triple cannot show a trade-off —
a grid can.  :class:`MatrixSpec` declares the grid (topologies × strategies ×
fault regimes, optionally × arrival/popularity/churn models), ``expand()``
turns it into concrete :class:`~repro.workload.spec.ScenarioSpec`\\ s (cells
whose strategy cannot run on their topology are skipped and reported, not
silently dropped), and :func:`run_matrix` executes every cell through the
batched driver.

Cells of the same topology share one :class:`~repro.network.Network` — and
therefore one static routing table and one
:class:`~repro.network.delivery.DeliveryPlanner` — so the O(n²) routing
construction is paid once per topology, not once per cell, and fault-free
plan caches stay warm across cells.  The driver resets the shared network
before each run, so every cell's metrics are byte-identical to a run on a
fresh network (and to a replay of its recorded trace).

Every cell's seed derives from a stable hash of its grid coordinates
(:func:`~repro.workload.spec.stable_seed`), never from draw order, so a
cell's random streams are identical no matter which order — or which worker
process — runs it.  :func:`run_matrix` holds no loop over cells: it hands
the grid to the execution engine (:mod:`repro.exec`), whose one cell loop
runs it as a single in-process shard by default and across worker
processes for ``workers=N``, with a byte-identical report
(:meth:`MatrixReport.digest`) either way.

The per-cell results aggregate into a :class:`MatrixReport`: hop
percentiles, cache hit rate, plan-cache hit rate and availability under
faults, sliceable by strategy, topology or fault regime, with JSON
persistence for benchmark trajectories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..codec import encode
from ..core.exceptions import StrategyError
from ..network.delivery import plan_hit_rates
from ..network.simulator import Network
from ..obs.registry import CounterMap
from ..obs.spans import SpanRecorder
from ..simtime.model import TimeModelSpec
from .driver import WorkloadDriver, WorkloadResult
from .spec import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    PopularitySpec,
    ScenarioSpec,
    build_strategy,
    build_topology,
    stable_seed,
)
from .trace import canonical_digest


def _regime_labels(regimes: Sequence[FaultRegimeSpec]) -> List[str]:
    """One unique label per regime axis entry (duplicates get an index)."""
    labels = [regime.label for regime in regimes]
    seen: Dict[str, int] = {}
    unique = []
    for label in labels:
        count = seen.get(label, 0)
        seen[label] = count + 1
        unique.append(label if labels.count(label) == 1 else f"{label}#{count}")
    return unique


@dataclass(frozen=True)
class MatrixCell:
    """One expanded grid cell: the concrete spec plus its grid coordinates.

    ``regime`` is the axis label (uniquified when the same regime kind
    appears twice on the axis), so reports can group duplicate kinds
    separately.  ``key`` is the coordinate string (without the matrix name)
    the cell's seed was derived from.
    """

    spec: ScenarioSpec
    topology: str
    strategy: str
    regime: str
    key: str = ""


@dataclass(frozen=True)
class MatrixSpec:
    """A declarative scenario grid.

    ``base`` is the template every cell inherits (operations, population,
    seed, delivery mode...); the axis tuples override one dimension each.
    Leaving ``arrivals``/``popularities``/``churns`` empty keeps the base's
    single model on that axis.
    """

    name: str = "matrix"
    topologies: Tuple[str, ...] = ("complete:16",)
    strategies: Tuple[str, ...] = ("checkerboard",)
    fault_regimes: Tuple[FaultRegimeSpec, ...] = (FaultRegimeSpec(),)
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    arrivals: Tuple[ArrivalSpec, ...] = ()
    popularities: Tuple[PopularitySpec, ...] = ()
    churns: Tuple[ChurnSpec, ...] = ()
    #: Time-model axis (``repro.simtime``): each entry may be a
    #: :class:`~repro.simtime.model.TimeModelSpec` or ``None`` (untimed),
    #: so one grid can compare hop counts against priced latency.  Empty
    #: keeps the base's single model, exactly like the other model axes.
    time_models: Tuple[Optional[TimeModelSpec], ...] = ()

    #: What :meth:`to_dict` adds to the field layout; ``decode`` skips them.
    DERIVED_KEYS = ("regime_labels", "cell_count")

    def __post_init__(self) -> None:
        if not self.topologies or not self.strategies or not self.fault_regimes:
            raise ValueError(
                "topologies, strategies and fault_regimes must be non-empty"
            )

    @property
    def cell_count(self) -> int:
        """Grid size before compatibility filtering."""
        return (
            len(self.topologies) * len(self.strategies)
            * len(self.fault_regimes)
            * max(1, len(self.arrivals)) * max(1, len(self.popularities))
            * max(1, len(self.churns)) * max(1, len(self.time_models))
        )

    def expand(self) -> Tuple[List[MatrixCell], List[Dict[str, str]]]:
        """All runnable cells, plus records of the skipped ones.

        A cell is skipped when its strategy cannot be instantiated on its
        topology (e.g. ``manhattan`` routing on a hypercube); the skip
        record carries the cell coordinates and the reason.  An unknown
        strategy name is not skipped: ``build_strategy`` raises
        ``ValueError``.
        """
        arrivals = self.arrivals or (self.base.arrival,)
        popularities = self.popularities or (self.base.popularity,)
        churns = self.churns or (self.base.churn,)
        time_models = self.time_models or (self.base.time_model,)
        regime_labels = _regime_labels(self.fault_regimes)
        cells: List[MatrixCell] = []
        skipped: List[Dict[str, str]] = []
        for topology_name in self.topologies:
            topology = build_topology(topology_name)
            for strategy_name in self.strategies:
                try:
                    build_strategy(strategy_name, topology)
                except StrategyError as error:
                    skipped.append({
                        "topology": topology_name,
                        "strategy": strategy_name,
                        "reason": str(error),
                    })
                    continue
                for regime, regime_label in zip(self.fault_regimes, regime_labels):
                    for a, arrival in enumerate(arrivals):
                        for p, popularity in enumerate(popularities):
                            for c, churn in enumerate(churns):
                                for t, time_model in enumerate(time_models):
                                    parts = [
                                        self.name, topology_name,
                                        strategy_name, regime_label,
                                    ]
                                    # Model axes only appear in the name when
                                    # they actually vary, so the common 3-axis
                                    # grid keeps short cell names.
                                    if len(arrivals) > 1:
                                        parts.append(f"a{a}")
                                    if len(popularities) > 1:
                                        parts.append(f"p{p}")
                                    if len(churns) > 1:
                                        parts.append(f"c{c}")
                                    if len(time_models) > 1:
                                        parts.append(f"t{t}")
                                    # The cell key is the coordinate string
                                    # minus the matrix name, so renaming a
                                    # grid keeps every cell's seed (and
                                    # therefore results).
                                    key = "/".join(parts[1:])
                                    spec = replace(
                                        self.base,
                                        name="/".join(parts),
                                        topology=topology_name,
                                        strategy=strategy_name,
                                        faults=regime,
                                        arrival=arrival,
                                        popularity=popularity,
                                        churn=churn,
                                        time_model=time_model,
                                        seed=stable_seed(self.base.seed, key),
                                    )
                                    cells.append(MatrixCell(
                                        spec=spec,
                                        topology=topology_name,
                                        strategy=strategy_name,
                                        regime=regime_label,
                                        key=key,
                                    ))
        return cells, skipped

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe, full-fidelity description of the grid: the field
        layout ``decode(MatrixSpec, data)`` reads, plus the derived
        :data:`DERIVED_KEYS` for report readers."""
        data = encode(self)
        # Like ScenarioSpec's ``time_model``: the axis appears only when
        # used, so untimed grid descriptions (and their report digests)
        # are byte-identical to pre-simtime output.
        if not self.time_models:
            del data["time_models"]
        data["regime_labels"] = _regime_labels(self.fault_regimes)
        data["cell_count"] = self.cell_count
        return data


@dataclass(frozen=True)
class CellResult:
    """One matrix cell's deterministic outcome plus run metadata
    (``wall_seconds``, rounded to 0.1 ms, is informational)."""

    topology: str
    strategy: str
    regime: str
    summary: Dict[str, object]
    plan_cache: Dict[str, int]
    wall_seconds: float

    @property
    def availability(self) -> float:
        """Fraction of the cell's requests that were served."""
        return float(self.summary.get("success_rate", 0.0))


class MatrixReport:
    """Comparable aggregation of every cell in one matrix run."""

    def __init__(
        self,
        grid: Dict[str, object],
        cells: Sequence[CellResult],
        skipped: Sequence[Dict[str, str]] = (),
        profile: Optional[Dict[str, object]] = None,
        cache: Optional[Dict[str, int]] = None,
    ) -> None:
        self._grid = dict(grid)
        self._cells = list(cells)
        self._skipped = [dict(entry) for entry in skipped]
        self._profile = dict(profile) if profile else None
        self._cache = (
            {key: int(cache[key]) for key in sorted(cache)}
            if cache is not None else None
        )

    @property
    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Cell-cache counters, when the cache was enabled.

        Hits, misses, stale/corrupt entries, stores and warm-up replays
        describe *how this run was computed*, not what it computed — a
        fully cached run and a cold run of the same grid are the same
        result.  The section is therefore excluded from
        :meth:`canonical_dict`, exactly like ``profile``.
        """
        return dict(self._cache) if self._cache is not None else None

    @property
    def cells(self) -> List[CellResult]:
        """Every executed cell."""
        return list(self._cells)

    @property
    def skipped(self) -> List[Dict[str, str]]:
        """Cells that could not run (incompatible strategy/topology)."""
        return [dict(entry) for entry in self._skipped]

    def __len__(self) -> int:
        return len(self._cells)

    # -- slicing ---------------------------------------------------------------

    def _aggregate(self, key: str) -> Dict[str, Dict[str, object]]:
        """Aggregate cells grouped by one coordinate (strategy/topology/
        regime)."""
        groups: Dict[str, List[CellResult]] = {}
        for cell in self._cells:
            groups.setdefault(getattr(cell, key), []).append(cell)
        aggregated = {}
        for label in sorted(groups):
            members = groups[label]
            requests = sum(c.summary["requests"] for c in members)
            successes = sum(c.summary["successes"] for c in members)
            cache_hits = sum(c.summary["cache_hits"] for c in members)
            plan_events = CounterMap()
            for cell in members:
                plan_events.merge(cell.plan_cache)
            aggregated[label] = {
                "cells": len(members),
                "requests": requests,
                "availability": round(successes / requests, 4) if requests else 0.0,
                "worst_cell_availability": round(
                    min(c.availability for c in members), 4
                ),
                "cache_hit_rate": round(cache_hits / requests, 4) if requests else 0.0,
                "p95_locate_hops": max(
                    c.summary["locate_hops"]["p95"] for c in members
                ),
                "p99_locate_hops": max(
                    c.summary["locate_hops"]["p99"] for c in members
                ),
                "plan_hit_rate": round(plan_hit_rates(plan_events)["plan"], 4),
            }
            # Latency aggregates exist only when the whole group was timed;
            # untimed (or mixed) groups keep the pre-simtime key set.
            if all("latency" in c.summary for c in members):
                aggregated[label]["p99_latency_us"] = max(
                    c.summary["latency"]["p99"] for c in members
                )
                aggregated[label]["p999_latency_us"] = max(
                    c.summary["latency"]["p999"] for c in members
                )
            # SLO aggregates: only when every member carried an objective
            # (the key set stays pinned for slo-less grids).
            if all("slo" in c.summary for c in members):
                aggregated[label]["slo_breached_windows"] = sum(
                    c.summary["slo"]["breached_windows"] for c in members
                )
                aggregated[label]["worst_latency_burn_rate"] = max(
                    c.summary["slo"]["latency_burn_rate"] for c in members
                )
                breaches = [
                    c.summary["slo"]["first_breach_us"] for c in members
                    if c.summary["slo"]["first_breach_us"] is not None
                ]
                aggregated[label]["first_breach_us"] = (
                    min(breaches) if breaches else None
                )
        return aggregated

    def by_strategy(self) -> Dict[str, Dict[str, object]]:
        """Aggregates per strategy — the paper's cross-strategy comparison."""
        return self._aggregate("strategy")

    def by_topology(self) -> Dict[str, Dict[str, object]]:
        """Aggregates per topology."""
        return self._aggregate("topology")

    def by_regime(self) -> Dict[str, Dict[str, object]]:
        """Aggregates per fault regime — robustness under each fault shape."""
        return self._aggregate("regime")

    def availability_floor(self) -> float:
        """The worst availability any cell recorded (1.0 for empty reports)."""
        if not self._cells:
            return 1.0
        return min(cell.availability for cell in self._cells)

    def plan_cache_events(self) -> Dict[str, int]:
        """Planner cache events summed over every cell."""
        totals = CounterMap()
        for cell in self._cells:
            totals.merge(cell.plan_cache)
        return totals

    def table(self) -> List[Dict[str, object]]:
        """Per-cell rows for printed comparison tables."""
        rows = []
        for cell in self._cells:
            rows.append({
                "topology": cell.topology,
                "strategy": cell.strategy,
                "regime": cell.regime,
                "ok%": round(100 * cell.availability, 1),
                "hit%": round(100 * float(cell.summary["cache_hit_rate"]), 1),
                "p50 hops": cell.summary["locate_hops"]["p50"],
                "p95 hops": cell.summary["locate_hops"]["p95"],
                "stale": cell.summary["stale_retries"],
            })
        return rows

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The whole report as one JSON-safe dictionary."""
        data = {
            "grid": self._grid,
            "cells": [encode(cell) for cell in self._cells],
            "skipped": self.skipped,
            "by_strategy": self.by_strategy(),
            "by_regime": self.by_regime(),
            "availability_floor": round(self.availability_floor(), 4),
        }
        if self._profile is not None:
            data["profile"] = dict(self._profile)
        if self._cache is not None:
            data["cache"] = dict(self._cache)
        return data

    def canonical_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` with every nondeterministic field neutralized.

        Per-cell wall seconds, the wall-clock ``profile`` section and the
        how-was-this-computed ``cache`` section are the only
        non-result content a report carries; zeroing the one and dropping
        the others leaves exactly the bytes that must match between a
        sequential run and any sharded parallel run of the same grid —
        with or without observability or caching enabled.
        """
        data = self.to_dict()
        data.pop("profile", None)
        data.pop("cache", None)
        for cell in data["cells"]:
            cell["wall_seconds"] = 0.0
        return data

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — the parallel-merge oracle.

        Equal digests mean byte-identical reports (modulo wall clock): same
        grid, same cells in the same order, same metrics, same plan-cache
        counters.  The E18 benchmark and CI pin sequential == parallel with
        this.
        """
        return canonical_digest(self.canonical_dict())

    def to_path(self, path) -> None:
        """Persist the report as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatrixReport(cells={len(self._cells)}, "
            f"availability_floor={self.availability_floor():.3f})"
        )


def run_cell(
    cell: MatrixCell,
    network: Optional[Network] = None,
    tracer: Optional[SpanRecorder] = None,
) -> Tuple[CellResult, WorkloadResult]:
    """Execute one expanded cell (the execution engine's cell loop lands
    here for every cell, whichever process runs it).

    ``tracer`` collects the driver's span tree for this cell; spans are
    logical-clock stamped, so tracing never changes the cell's results.
    """
    result = WorkloadDriver(cell.spec, network=network).run(tracer=tracer)
    cell_result = CellResult(
        topology=cell.topology,
        strategy=cell.strategy,
        regime=cell.regime,
        summary=result.summary(),
        plan_cache=result.plan_cache,
        wall_seconds=round(result.wall_seconds, 4),
    )
    return cell_result, result


def write_cell_trace(trace_dir, position: int, result: WorkloadResult) -> Path:
    """Persist one cell's trace as ``cell-NNNN.jsonl`` under ``trace_dir``.

    ``position`` is the cell's grid expansion index, so sequential and
    sharded runs of the same grid write identical file sets; any file
    replays on its own through ``python -m repro replay``.
    """
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"cell-{position:04d}.jsonl"
    result.trace.to_path(path)
    return path


def run_matrix(
    matrix: MatrixSpec,
    keep_results: bool = False,
    workers: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    trace_dir=None,
    obs_dir=None,
    profile: bool = False,
    cache_dir=None,
    executor=None,
) -> Tuple[MatrixReport, List[WorkloadResult]]:
    """Execute every cell of ``matrix`` and aggregate the results.

    All cells on the same topology run over one reset-between-runs
    :class:`~repro.network.Network`.  Full
    :class:`~repro.workload.driver.WorkloadResult` objects (with traces) are
    only retained when ``keep_results`` is set — a large grid's traces can
    dwarf the report.

    The grid runs through the execution engine (:mod:`repro.exec`).  By
    default (``workers`` ``None`` or 1) that is one shard executed in this
    process — no worker processes, no spool files.  ``workers`` > 1 shards
    the cells across worker processes with topology affinity and merges a
    report byte-identical (see :meth:`MatrixReport.digest`) to the default
    run's; ``workers=0`` means one worker per CPU.  ``progress`` is called
    as ``progress(done_cells, total_cells)`` while the grid runs, and
    ``trace_dir`` spools every cell's trace as a replayable JSONL file.

    ``obs_dir`` enables the observability export (per-cell span trees,
    shard spans, a per-cell metrics JSONL — see :mod:`repro.obs.export`),
    and ``profile`` turns on wall-clock phase timing surfaced in the
    report's ``profile`` section.  Both are digest-neutral: spans carry
    logical clocks only, and the profile section is excluded from
    :meth:`MatrixReport.canonical_dict`.

    ``cache_dir`` enables the content-addressed cell cache
    (:mod:`repro.exec.cache`): unchanged cells are served from disk
    instead of executed (runs that must produce per-cell artifacts —
    kept results, traces, the obs export — still execute everything but
    populate the cache for later plain runs).  Runs at any worker count
    share entries, and the report digest is byte-identical with the
    cache cold, warm or absent; the counters land in the digest-excluded
    ``cache`` section.  ``executor`` is a caller-owned
    :class:`concurrent.futures.Executor` that a multi-shard plan submits
    its shards to instead of starting a fresh one; it is never shut down
    here, so successive sweeps can share its worker processes.  A
    one-shard plan runs in this process and never touches it.
    """
    from ..exec.runner import run_matrix_parallel  # local: import cycle

    return run_matrix_parallel(
        matrix,
        workers=1 if workers is None else workers,
        keep_results=keep_results,
        progress=progress,
        trace_dir=trace_dir,
        obs_dir=obs_dir,
        profile=profile,
        cache_dir=cache_dir,
        executor=executor,
    )
