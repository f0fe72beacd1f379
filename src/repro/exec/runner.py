"""The one cell loop, and the deterministic merge of what it emits.

Every matrix sweep — sequential, sharded across fresh worker processes,
or submitted to a :class:`~repro.exec.pool.WarmPool` — is an
:class:`~repro.exec.plan.ExecutionPlan` whose shards execute through
:func:`run_shard`, the only caller of
:func:`repro.workload.matrix.run_cell` outside the cache's warm-up
replay.  It hands each finished cell to an ``emit`` callback, and where a
shard runs changes only that callback.  A one-shard plan without a pool
runs in this process: ``emit`` appends to a list and ticks ``progress``,
so a plain sweep starts no process and writes no spool.  Any other plan
runs each shard in a worker process whose ``emit`` writes and flushes one
JSONL spool line; the parent polls the spools while the pool drains (that
is the progress/ETA feed) and loads them afterwards.  Either way the
records merge by grid position into a
:class:`~repro.workload.matrix.MatrixReport`, so its canonical JSON does
not depend on the worker count.

Payloads crossing the process boundary are plain picklable data: a
:class:`ShardPayload` outbound, and — only when callers ask to keep full
results — ``WorkloadResult`` objects inbound, which pickle cleanly
because results never reference a live ``Network`` or planner.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..network.simulator import Network
from ..obs import export as _obs_export
from ..obs.profile import CELL_RUN, SPOOL_MERGE, PhaseProfile, phase, profiling
from ..obs.spans import SpanRecorder
from ..workload.driver import WorkloadResult
from ..workload.matrix import (
    CellResult,
    MatrixReport,
    MatrixSpec,
    run_cell,
    write_cell_trace,
)
from .cache import (
    CellCache,
    IncrementalRunner,
    canonical_cell_payload,
    merge_cache_stats,
)
from .plan import ExecutionPlan, IndexedCell, Shard
from .pool import WarmPool, checkout_network
from .spool import SpoolCursor, SpoolError, dump_spool_line, load_spool, \
    shard_spool_path

#: How often the parent polls spool files for progress while workers run.
POLL_SECONDS = 0.2

#: Receives each cell of a shard as it finishes: ``emit(position, result)``.
Emit = Callable[[int, CellResult], None]

#: What a shard hands back: kept ``(position, result)`` pairs, its
#: wall-clock phase profile (as a dict) or ``None``, and its
#: cache/warm-pool counter snapshot or ``None`` when neither is in play.
ShardOutcome = Tuple[
    List[Tuple[int, WorkloadResult]],
    Optional[Dict[str, object]],
    Optional[Dict[str, int]],
]


@dataclass(frozen=True)
class ShardPayload:
    """One shard's work order: all the cell loop needs, all picklable."""

    index: int
    cells: Tuple[IndexedCell, ...]
    share_networks: bool
    keep_results: bool
    trace_dir: Optional[str]
    obs_dir: Optional[str]
    #: Label of the wall-clock phase profile to collect (``None`` = off).
    profile: Optional[str]
    cache_dir: Optional[str]
    #: Warm-pool generation (``None`` = no pool).
    generation: Optional[int]
    #: The spool file this shard streams into (``None`` = no spool).
    spool_path: Optional[str]


def _shard_metrics_path(obs_path: Path, shard_index: int) -> Path:
    """The shard-private metrics part file the parent merges and removes.

    Workers must never append to the shared ``metrics.jsonl`` concurrently;
    each writes its own part, exactly like the result spools.
    """
    return obs_path / f"metrics-shard-{shard_index:03d}.jsonl"


def run_shard(payload: ShardPayload, emit: Emit) -> ShardOutcome:
    """Run one shard's cells in the given order, emitting each as it
    finishes.

    Cells execute over per-topology shared networks
    (:func:`~repro.exec.pool.checkout_network`), so plan-cache counters
    (which are part of the report) depend only on a topology's own cells
    and their order — never on which shard, process or sweep ran them.
    With a cache dir, unchanged cells are served from the chain-keyed
    store instead (:mod:`repro.exec.cache`).

    With an obs dir the shard writes the cell-level files keyed on grid
    position (``spans-cell-NNNN.jsonl``, ``timelines-cell-NNNN.jsonl``)
    plus its own ``shard`` span file and a private metrics part the parent
    folds into ``metrics.jsonl``.
    """
    obs_path = Path(payload.obs_dir) if payload.obs_dir is not None else None
    shard_tracer = SpanRecorder() if obs_path is not None else None
    shard_profile = PhaseProfile(payload.profile) if payload.profile else None
    networks: Dict[str, Network] = {}
    kept: List[Tuple[int, WorkloadResult]] = []
    stats: Dict[str, int] = {}
    cache = runner = None
    if payload.cache_dir is not None:
        cache = CellCache(payload.cache_dir)
        runner = IncrementalRunner(
            cache,
            share_networks=payload.share_networks,
            reads=not (
                payload.keep_results or payload.trace_dir is not None
                or obs_path is not None
            ),
        )
    metrics_fp = None
    try:
        if obs_path is not None:
            metrics_fp = open(
                _shard_metrics_path(obs_path, payload.index), "w",
                encoding="utf-8",
            )
        with profiling(shard_profile):
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
                network: Optional[Network] = None
                if payload.share_networks:
                    network = checkout_network(
                        networks, cell.spec, payload.generation, stats
                    )
                    if runner is not None:
                        runner.warmup(cell, network)
                cell_tracer = SpanRecorder() if obs_path is not None else None
                with phase(CELL_RUN):
                    cell_result, result = run_cell(
                        cell, network=network, tracer=cell_tracer
                    )
                if runner is not None:
                    runner.record(cell_result)
                emit(position, cell_result)
                if obs_path is not None:
                    _obs_export.write_cell_export(
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
                        metrics_fp,
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
                shard_tracer.to_path(
                    _obs_export.shard_span_path(obs_path, payload.index)
                )
    finally:
        if metrics_fp is not None:
            metrics_fp.close()
    profile_dict = (
        shard_profile.to_dict() if shard_profile is not None else None
    )
    if cache is not None:
        merge_cache_stats(stats, cache.stats())
    return kept, profile_dict, (stats or None)


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
    share_networks: bool = True,
    keep_results: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    trace_dir=None,
    spool_dir=None,
    obs_dir=None,
    profile: bool = False,
    cache_dir=None,
    pool: Optional[WarmPool] = None,
) -> Tuple[MatrixReport, List[WorkloadResult]]:
    """Plan ``matrix`` into shards, run them, merge by grid position.

    :func:`~repro.workload.matrix.run_matrix` forwards here and documents
    the shared parameters.  Two differ: ``workers=None`` means one per CPU
    (like 0), and ``spool_dir`` keeps the JSONL spool files, which
    otherwise live in a temporary directory removed after the merge.

    A plan of one shard runs in this process — no executor, no spool
    unless ``spool_dir`` asks for one, its profile labelled
    ``sequential``.  Any other plan, and every plan given a ``pool``
    (which overrides ``workers`` and is not shut down here), runs in
    worker processes: the profile section is ``parent`` plus one
    ``shard-N`` per worker, and an obs export also records the parent's
    ``merge`` span.  The report is byte-identical
    (:meth:`MatrixReport.digest`) either way.
    """
    if pool is not None:
        workers = pool.workers
    plan = ExecutionPlan.from_matrix(matrix, workers or 0)
    # A grid with no runnable cell still runs (and exports) as one empty
    # shard.
    shards = plan.shards or (Shard(index=0, cells=()),)
    in_process = pool is None and len(shards) == 1
    total = plan.cell_count
    own_spool = spool_dir is None
    spool_root = None
    if not (in_process and own_spool):
        spool_root = Path(
            tempfile.mkdtemp(prefix="repro-spool-") if own_spool else spool_dir
        )
        spool_root.mkdir(parents=True, exist_ok=True)
    obs_path = (
        _obs_export.export_dir(obs_dir) if obs_dir is not None else None
    )
    generation = pool.generation if pool is not None and share_networks \
        else None
    payloads = [
        ShardPayload(
            index=shard.index,
            cells=shard.cells,
            share_networks=share_networks,
            keep_results=keep_results,
            trace_dir=str(trace_dir) if trace_dir is not None else None,
            obs_dir=str(obs_path) if obs_path is not None else None,
            profile=(
                None if not profile
                else "sequential" if in_process else f"shard-{shard.index}"
            ),
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            generation=generation,
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
            outcomes = _run_in_workers(payloads, pool, progress, total)
            if obs_path is not None:
                merge_tracer = SpanRecorder()
                merge_span = merge_tracer.begin(
                    "merge", shards=len(shards), cells=total
                )
            sources = (
                (payload.spool_path, load_spool(payload.spool_path))
                for payload in payloads
            )
        with profiling(parent_profile), phase(SPOOL_MERGE):
            cells = _merge_records(sources, total)
            if obs_path is not None:
                _merge_shard_metrics(obs_path, shards)
        if merge_tracer is not None:
            merge_tracer.end(merge_span)
            merge_tracer.to_path(obs_path / _obs_export.MERGE_SPANS_FILE)
    finally:
        if own_spool and spool_root is not None:
            shutil.rmtree(spool_root, ignore_errors=True)
    kept: Dict[int, WorkloadResult] = {}
    exec_stats: Dict[str, int] = {}
    profiles = [parent_profile] if parent_profile is not None else []
    for shard_kept, shard_profile, shard_stats in outcomes:
        kept.update(shard_kept)
        if shard_profile is not None:
            profiles.append(PhaseProfile.from_dict(shard_profile))
        if shard_stats:
            merge_cache_stats(exec_stats, shard_stats)
    report = MatrixReport(
        matrix.to_dict(),
        cells,
        plan.skipped,
        profile=_obs_export.profiles_dict(profiles) if profile else None,
        cache=exec_stats if cache_dir is not None or pool is not None else None,
    )
    if obs_path is not None and report.cache_stats is not None:
        _obs_export.write_cache_stats(
            _obs_export.cache_stats_path(obs_path), exec_stats
        )
    if obs_path is not None and profile:
        _obs_export.write_profiles(_obs_export.profile_path(obs_path), profiles)
    return report, [kept[position] for position in sorted(kept)]


def _run_in_workers(
    payloads: List[ShardPayload],
    pool: Optional[WarmPool],
    progress: Optional[Callable[[int, int], None]],
    total: int,
) -> List[ShardOutcome]:
    """Run every payload in its own worker process — the pool's, or a
    fresh executor's — polling the spools for progress while they drain;
    outcomes come back in payload order."""
    executor = (
        ProcessPoolExecutor(max_workers=len(payloads))
        if pool is None else pool.executor
    )
    try:
        futures = [
            executor.submit(_spool_shard, payload) for payload in payloads
        ]
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
    finally:
        if pool is None:
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


def _merge_shard_metrics(obs_path: Path, shards: Iterable[Shard]) -> None:
    """Fold the workers' metrics part files into one position-sorted
    ``metrics.jsonl`` — byte-identical to the file a sequential run writes —
    then delete the parts.

    The parts are the only copy of the workers' metrics, so the merge must
    not destroy them before the merged file exists: everything is read and
    sorted first (a parse error here leaves every part intact on disk),
    the merged file lands via a temp file + atomic rename, and only then
    are the parts removed.
    """
    lines: List[Tuple[int, str]] = []
    parts: List[Path] = []
    for shard in shards:
        part = _shard_metrics_path(obs_path, shard.index)
        if not part.exists():
            continue
        with open(part, "r", encoding="utf-8") as fp:
            for line in fp:
                if line.strip():
                    lines.append((int(json.loads(line)["position"]), line))
        parts.append(part)
    lines.sort(key=lambda pair: pair[0])
    target = _obs_export.metrics_path(obs_path)
    tmp = target.parent / f"{target.name}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        for _, line in lines:
            fp.write(line)
    os.replace(tmp, target)
    for part in parts:
        part.unlink()
