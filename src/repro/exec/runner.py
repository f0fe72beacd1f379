"""The one cell loop, and the deterministic merge of what it emits.

Every matrix sweep — sequential, or sharded across worker processes
(a fresh executor's, or one the caller owns) — is an
:class:`~repro.exec.plan.ExecutionPlan` whose shards execute through
:func:`run_shard`, the only caller of
:func:`repro.workload.matrix.run_cell` outside the cache's warm-up
replay.  It hands each finished cell to an ``emit`` callback, and where a
shard runs changes only that callback.  A one-shard plan runs in this
process: ``emit`` appends to a list and ticks ``progress``, so a plain
sweep starts no process and writes no spool.  Any other plan runs each
shard in a worker process whose ``emit`` writes and flushes one JSONL
spool line; the parent polls the spools while the workers drain (that
is the progress/ETA feed) and loads them afterwards.  A worker keeps
nothing between shards: each shard builds the networks it needs.  Either
way the records merge by grid position into a
:class:`~repro.workload.matrix.MatrixReport`, so its canonical JSON does
not depend on the worker count.

An obs export (:mod:`repro.obs.export`) needs no merge: each shard writes
its cells' files and its own shard file, and the parent writes only the
run file (its ``merge`` span, profiles, cache counters) after the
workers drain.  Nothing is installed process-wide: each cell's tracer
goes to :func:`~repro.workload.matrix.run_cell`, and each shard's phase
profile (the parent's, for ``spool-merge``) is passed to what it times.

Payloads crossing the process boundary are plain picklable data: a
:class:`ShardPayload` outbound, and — only when callers ask to keep full
results — ``WorkloadResult`` objects inbound, which pickle cleanly
because results never reference a live ``Network`` or planner.
"""

from __future__ import annotations

import shutil
import tempfile
from concurrent.futures import (
    FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..network.simulator import Network
from ..obs import export as _obs_export
from ..obs.profile import (
    CELL_RUN, SPOOL_MERGE, TOPOLOGY_BUILD, PhaseProfile, timed,
)
from ..obs.spans import SpanRecorder
from ..workload.driver import WorkloadResult
from ..workload.matrix import (
    CellResult,
    MatrixReport,
    MatrixSpec,
    run_cell,
    write_cell_trace,
)
from ..workload.spec import build_topology
from .cache import (
    CellCache,
    IncrementalRunner,
    canonical_cell_payload,
    merge_cache_stats,
)
from .plan import ExecutionPlan, IndexedCell, Shard
from .spool import SpoolCursor, SpoolError, dump_spool_line, load_spool, \
    shard_spool_path

#: How often the parent polls spool files for progress while workers run.
POLL_SECONDS = 0.2

#: Receives each cell of a shard as it finishes: ``emit(position, result)``.
Emit = Callable[[int, CellResult], None]

#: What a shard hands back: kept ``(position, result)`` pairs, its
#: wall-clock phase profile (it pickles) or ``None``, and its cell-cache
#: counter snapshot or ``None`` when the cache is off.
ShardOutcome = Tuple[
    List[Tuple[int, WorkloadResult]],
    Optional[PhaseProfile],
    Optional[Dict[str, int]],
]


@dataclass(frozen=True)
class ShardPayload:
    """One shard's work order: all the cell loop needs, all picklable."""

    index: int
    cells: Tuple[IndexedCell, ...]
    keep_results: bool
    trace_dir: Optional[str]
    obs_dir: Optional[str]
    #: Label of the wall-clock phase profile to collect (``None`` = off).
    profile: Optional[str]
    cache_dir: Optional[str]
    #: The spool file this shard streams into (``None`` = no spool).
    spool_path: Optional[str]


def run_shard(payload: ShardPayload, emit: Emit) -> ShardOutcome:
    """Run one shard's cells in the given order, emitting each as it
    finishes.

    Cells execute over per-topology shared networks, each built on its
    topology's first cell and kept only for this shard, so plan-cache
    counters (which are part of the report) depend only on a topology's
    own cells and their order — never on which shard, process or sweep
    ran them.
    With a cache dir, unchanged cells are served from the chain-keyed
    store instead (:mod:`repro.exec.cache`).

    With an obs dir the shard writes each executed cell's export file,
    keyed on grid position (``obs-cell-NNNN.jsonl``), plus its own
    ``obs-shard-NNN.jsonl`` — never a file another worker writes.  With a
    profile label it owns a :class:`~repro.obs.profile.PhaseProfile` and
    times ``topology-build`` and ``cell-run`` here, handing the profile to
    the cache, which times ``cache-warmup`` (its replays).
    """
    obs_path = Path(payload.obs_dir) if payload.obs_dir is not None else None
    shard_tracer = SpanRecorder() if obs_path is not None else None
    profile = PhaseProfile(payload.profile) if payload.profile else None
    networks: Dict[str, Network] = {}
    kept: List[Tuple[int, WorkloadResult]] = []
    cache = runner = None
    if payload.cache_dir is not None:
        cache = CellCache(payload.cache_dir)
        runner = IncrementalRunner(
            cache,
            reads=not (
                payload.keep_results or payload.trace_dir is not None
                or obs_path is not None
            ),
        )
    shard_span = None
    if shard_tracer is not None:
        shard_span = shard_tracer.begin(
            "shard", shard=payload.index, cells=len(payload.cells)
        )
    for indexed in payload.cells:
        position, cell = indexed.position, indexed.cell
        if runner is not None:
            cached = runner.lookup(cell)
            if cached is not None:
                emit(position, cached)
                continue
        network = networks.get(cell.spec.topology)
        if network is None:
            with timed(profile, TOPOLOGY_BUILD):
                network = build_topology(cell.spec.topology).build_network(
                    delivery_mode=cell.spec.delivery_mode
                )
            networks[cell.spec.topology] = network
        if runner is not None:
            runner.warmup(cell, network, profile)
        cell_tracer = SpanRecorder() if obs_path is not None else None
        with timed(profile, CELL_RUN):
            cell_result, result = run_cell(
                cell, network=network, tracer=cell_tracer
            )
        if runner is not None:
            runner.record(cell_result)
        emit(position, cell_result)
        if obs_path is not None:
            _obs_export.write_cell(
                obs_path,
                position,
                {
                    "name": cell.spec.name,
                    "topology": cell.topology,
                    "strategy": cell.strategy,
                    "regime": cell.regime,
                },
                cell_tracer,
                result,
            )
            shard_tracer.set_clock(float(position))
            shard_tracer.event(
                "cell-run", position=position, cell=cell.spec.name
            )
        if payload.trace_dir is not None:
            write_cell_trace(payload.trace_dir, position, result)
        if payload.keep_results:
            kept.append((position, result))
    if shard_tracer is not None:
        shard_tracer.end(shard_span, cells=len(payload.cells))
        _obs_export.write_records(
            obs_path, _obs_export.span_records(shard_tracer),
            shard=payload.index,
        )
    return kept, profile, (cache.stats() if cache is not None else None)


def _spool_shard(
    payload: ShardPayload, then: Optional[Emit] = None
) -> ShardOutcome:
    """:func:`run_shard` with an ``emit`` that streams each cell into the
    payload's spool file (when it names one) and then on to ``then``.

    The worker-process entry point; top-level (not a closure) so it
    pickles under the ``spawn`` start method as well as ``fork``.
    """
    if payload.spool_path is None:
        return run_shard(payload, then)
    with open(payload.spool_path, "w", encoding="utf-8") as fp:
        def emit(position: int, cell_result: CellResult) -> None:
            fp.write(dump_spool_line(position, cell_result))
            fp.flush()  # stream: the parent polls for progress
            if then is not None:
                then(position, cell_result)

        return run_shard(payload, emit)


def run_matrix_parallel(
    matrix: MatrixSpec,
    workers: Optional[int] = None,
    keep_results: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    trace_dir=None,
    obs_dir=None,
    profile: bool = False,
    cache_dir=None,
    executor: Optional[Executor] = None,
) -> Tuple[MatrixReport, List[WorkloadResult]]:
    """Plan ``matrix`` into shards, run them, merge by grid position.

    :func:`~repro.workload.matrix.run_matrix` forwards here and documents
    the shared parameters; one differs: ``workers=None`` means one per CPU
    (like 0).

    A plan of one shard runs in this process — no worker process, no
    spool, its profile labelled ``sequential``.  Any other plan runs one
    task per shard in worker processes, each streaming its cells to a JSONL
    spool in a temporary directory removed after the merge: the caller's
    ``executor`` (any
    :class:`concurrent.futures.Executor`, left running for the next
    sweep), else a fresh one shut down before this returns.  Its profile
    section is ``parent`` plus one ``shard-N`` per shard, and an obs
    export also records the parent's ``merge`` span.  The report is
    byte-identical (:meth:`MatrixReport.digest`) either way.
    """
    plan = ExecutionPlan.from_matrix(matrix, workers or 0)
    # A grid with no runnable cell still runs (and exports) as one empty
    # shard.
    shards = plan.shards or (Shard(index=0, cells=()),)
    in_process = len(shards) == 1
    total = plan.cell_count
    spool_root = (
        None if in_process else Path(tempfile.mkdtemp(prefix="repro-spool-"))
    )
    obs_path = (
        _obs_export.export_dir(obs_dir) if obs_dir is not None else None
    )
    payloads = [
        ShardPayload(
            index=shard.index,
            cells=shard.cells,
            keep_results=keep_results,
            trace_dir=str(trace_dir) if trace_dir is not None else None,
            obs_dir=str(obs_path) if obs_path is not None else None,
            profile=(
                None if not profile
                else "sequential" if in_process else f"shard-{shard.index}"
            ),
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            spool_path=(
                str(shard_spool_path(spool_root, shard.index))
                if spool_root is not None else None
            ),
        )
        for shard in shards
    ]
    parent_profile = PhaseProfile("parent") if profile and not in_process \
        else None
    merge_tracer = None
    try:
        if in_process:
            collected: List[Tuple[int, CellResult]] = []

            def collect(position: int, cell_result: CellResult) -> None:
                collected.append((position, cell_result))
                if progress is not None:
                    progress(len(collected), total)

            outcomes = [_spool_shard(payloads[0], collect)]
            sources = [("this process", collected)]
        else:
            outcomes = _run_in_workers(payloads, executor, progress, total)
            if obs_path is not None:
                merge_tracer = SpanRecorder()
                merge_span = merge_tracer.begin(
                    "merge", shards=len(shards), cells=total
                )
            sources = (
                (payload.spool_path, load_spool(payload.spool_path))
                for payload in payloads
            )
        with timed(parent_profile, SPOOL_MERGE):
            cells = _merge_records(sources, total)
        if merge_tracer is not None:
            merge_tracer.end(merge_span)
    finally:
        if spool_root is not None:
            shutil.rmtree(spool_root, ignore_errors=True)
    kept: Dict[int, WorkloadResult] = {}
    exec_stats: Dict[str, int] = {}
    profiles = [parent_profile] if parent_profile is not None else []
    for shard_kept, shard_profile, shard_stats in outcomes:
        kept.update(shard_kept)
        if shard_profile is not None:
            profiles.append(shard_profile)
        if shard_stats:
            merge_cache_stats(exec_stats, shard_stats)
    profile_records = [
        {"kind": "profile", **entry.to_dict()} for entry in profiles
    ]
    report = MatrixReport(
        matrix.to_dict(),
        cells,
        plan.skipped,
        profile=_obs_export.profiles_dict(profile_records) if profile else None,
        cache=exec_stats if cache_dir is not None else None,
    )
    if obs_path is not None:
        run_records = profile_records
        if merge_tracer is not None:
            run_records = _obs_export.span_records(merge_tracer) + run_records
        if report.cache_stats is not None:
            run_records.append({"kind": "cache", "counters": exec_stats})
        if run_records:
            _obs_export.write_records(obs_path, run_records)
    return report, [kept[position] for position in sorted(kept)]


def _run_in_workers(
    payloads: List[ShardPayload],
    executor: Optional[Executor],
    progress: Optional[Callable[[int, int], None]],
    total: int,
) -> List[ShardOutcome]:
    """Submit every payload to ``executor`` (or to a fresh executor owned
    and shut down here), polling the spools for progress while they drain;
    outcomes come back in payload order.

    On the first shard error the shards not yet started are cancelled and
    the running ones waited for before the error is raised, so no shard
    still writes spool, cache or obs files once this returns.
    """
    owned = executor is None
    if owned:
        executor = ProcessPoolExecutor(max_workers=len(payloads))
    futures = []
    try:
        for payload in payloads:
            futures.append(executor.submit(_spool_shard, payload))
        pending = set(futures)
        cursor = SpoolCursor(payload.spool_path for payload in payloads)
        while pending:
            done, pending = wait(
                pending, timeout=POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            if progress is not None:
                progress(min(cursor.count(), total), total)
            for future in done:
                future.result()  # reraise worker errors here
    except BaseException:
        wait([future for future in futures if not future.cancel()])
        raise
    finally:
        if owned:
            executor.shutdown(wait=True)
    if progress is not None:
        progress(total, total)
    return [future.result() for future in futures]


def _merge_records(
    sources: Iterable[Tuple[str, List[Tuple[int, CellResult]]]], total: int
) -> List[CellResult]:
    """Every emitted ``(position, result)`` record, as one list in grid
    position order; raises unless exactly positions ``0..total-1`` are
    covered."""
    merged: Dict[int, CellResult] = {}
    origins: Dict[int, str] = {}
    for origin, records in sources:
        for position, cell_result in records:
            existing = merged.get(position)
            if existing is None:
                merged[position] = cell_result
                origins[position] = origin
                continue
            # Duplicates are legal only when byte-equal (an idempotent
            # re-spool); disagreeing records mean two different cells
            # claimed one grid position.
            if canonical_cell_payload(existing) != \
                    canonical_cell_payload(cell_result):
                raise SpoolError(
                    f"conflicting spool records for cell "
                    f"{position}: {origins[position]} and {origin} "
                    f"disagree"
                )
    if sorted(merged) != list(range(total)):
        missing = sorted(set(range(total)) - set(merged))
        raise RuntimeError(
            f"parallel merge incomplete: spool is missing cells "
            f"{missing}"
        )
    return [merged[position] for position in range(total)]

