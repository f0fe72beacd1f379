"""A scenario-matrix sweep: strategies × topologies × fault regimes.

Expands a declarative grid — three topologies, three name-server
strategies, and three fault regimes (fault-free, crash/recover waves, link
flaps) — and runs it through the **parallel execution engine**: cells
shard across worker processes with topology affinity (each shard keeps
one shared network per topology warm, exactly like the sequential
engine), stream results into a JSONL spool, and merge into a report that
is byte-identical to a sequential run — the printed digest proves it, and
``--workers 1`` lets you check.

The report prints three ways: per cell, per strategy and per fault regime.
The per-regime slice is the paper's robustness story in one table:
availability degrades as the fault regime sharpens, and degrades least for
the strategies that spread rendezvous widely.

The sweep then runs once more through the same ``ProcessPoolExecutor``:
the re-run reuses the worker processes, which kept nothing from the first
run, and must reproduce the printed report's digest.

Run with::

    PYTHONPATH=src python examples/matrix_sweep.py            # one worker/CPU
    PYTHONPATH=src python examples/matrix_sweep.py --workers 1  # sequential
"""

import argparse
from concurrent.futures import ProcessPoolExecutor

from repro.analysis import render_matrix_report
from repro.exec import ProgressReporter
from repro.exec.plan import resolve_workers
from repro.workload import (
    ArrivalSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    run_matrix,
)


def sweep_matrix() -> MatrixSpec:
    return MatrixSpec(
        name="sweep",
        topologies=("complete:25", "manhattan:5", "hypercube:4"),
        strategies=("checkerboard", "hash-locate", "centralized"),
        fault_regimes=(
            FaultRegimeSpec(),  # fault-free baseline
            FaultRegimeSpec(kind="waves", events=3, size=2,
                            start=0.1, period=0.3, downtime=0.2),
            FaultRegimeSpec(kind="flaps", events=5,
                            start=0.1, period=0.2, downtime=0.15),
        ),
        base=ScenarioSpec(
            operations=3_000,
            clients=10,
            servers=6,
            ports=3,
            delivery_mode="unicast",
            seed=77,
            arrival=ArrivalSpec(kind="poisson", rate=1200.0),
            popularity=PopularitySpec(kind="zipf"),
        ),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes (0 = one per CPU, 1 = sequential; default 0)",
    )
    args = parser.parse_args()

    with ProcessPoolExecutor(
        max_workers=resolve_workers(args.workers)
    ) as executor:
        report, _ = run_matrix(
            sweep_matrix(), workers=args.workers,
            progress=ProgressReporter(), executor=executor,
        )
        print(render_matrix_report(report))
        again, _ = run_matrix(
            sweep_matrix(), workers=args.workers, executor=executor
        )
    assert again.digest() == report.digest()


if __name__ == "__main__":
    main()
