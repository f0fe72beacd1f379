"""Trace-driven workload engine: traffic generation, churn and metrics.

The paper evaluates match-making strategies one locate at a time; the
motivating system (Amoeba's processor pool) serves continuous streams of
requests against a shifting population of servers.  This subpackage closes
that gap: declarative :class:`ScenarioSpec`\\ s compose arrival processes
(closed-loop, Poisson, bursts), popularity models (uniform, Zipf, moving
hotspot) and churn models (migration, failover, invalidation storms); the
:class:`WorkloadDriver` executes tens of thousands of operations against a
:class:`~repro.processes.system.DistributedSystem` and measures the result
like a production service — hop percentiles, cache hit rates, per-node load
— with byte-exact trace record/replay for reproducibility.

Beyond single scenarios, :class:`FaultRegimeSpec` schedules substrate fault
timelines (crash/recover waves, link flaps) that advance the fault-plan
revision mid-run, and the scenario-matrix engine (:class:`MatrixSpec` /
:func:`run_matrix`) expands topology × strategy × fault-regime grids into
cells that share one network per topology and aggregate into a comparable
:class:`MatrixReport`.  Every cell's random streams derive from a stable
hash of its grid coordinates (:func:`stable_seed`), so
``run_matrix(..., workers=N)`` can shard the grid across worker processes
(see :mod:`repro.exec`) and merge a report byte-identical to the
sequential run.

Quick start::

    from repro.workload import ScenarioSpec, PopularitySpec, run_scenario

    spec = ScenarioSpec(
        name="soak",
        topology="manhattan:8",
        strategy="checkerboard",
        operations=20_000,
        clients=32,
        servers=8,
        ports=8,
        popularity=PopularitySpec(kind="zipf"),
    )
    result = run_scenario(spec)
    print(result.summary()["locate_hops"])   # {'p50': ..., 'p95': ..., ...}
"""

from .arrivals import (
    ArrivalProcess,
    BurstArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
)
from .churn import (
    ChurnEvent,
    ChurnModel,
    NoChurn,
    PoissonChurn,
)
from .driver import (
    WorkloadDriver,
    WorkloadResult,
    compare_under_load,
    replay_trace,
    run_scenario,
    workload_table,
)
from .matrix import (
    CellResult,
    MatrixCell,
    MatrixReport,
    MatrixSpec,
    run_cell,
    run_matrix,
    write_cell_trace,
)
from .metrics import WorkloadMetrics
from .popularity import (
    MovingHotspotPopularity,
    PopularityModel,
    UniformPopularity,
    ZipfPopularity,
)
from .spec import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
    build_fault_timeline,
    build_strategy,
    build_topology,
    stable_seed,
    strategy_names,
)
from .trace import Trace, TraceOp, canonical_digest

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "BurstArrivals",
    "CellResult",
    "ChurnEvent",
    "ChurnModel",
    "ChurnSpec",
    "ClosedLoopArrivals",
    "FaultRegimeSpec",
    "MatrixCell",
    "MatrixReport",
    "MatrixSpec",
    "MovingHotspotPopularity",
    "NoChurn",
    "PoissonArrivals",
    "PoissonChurn",
    "PopularityModel",
    "PopularitySpec",
    "ScenarioSpec",
    "SloSpec",
    "Trace",
    "TraceOp",
    "UniformPopularity",
    "WorkloadDriver",
    "WorkloadMetrics",
    "WorkloadResult",
    "ZipfPopularity",
    "build_fault_timeline",
    "build_strategy",
    "build_topology",
    "canonical_digest",
    "compare_under_load",
    "replay_trace",
    "run_cell",
    "run_matrix",
    "run_scenario",
    "stable_seed",
    "strategy_names",
    "workload_table",
    "write_cell_trace",
]
