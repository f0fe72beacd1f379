"""The execution engine: one cell loop behind every matrix sweep.

A scenario-matrix grid is embarrassingly parallel per cell — every cell's
random streams derive from a stable hash of its grid coordinates, so no
cell can observe another.  The only cross-cell state is deliberate: cells
sharing a topology reuse one :class:`~repro.network.Network` (and its
routing tables and delivery-plan caches) through ``reset_for_reuse``, which
leaves per-cell *metrics* untouched but makes the warm-cache *counters*
depend on which same-topology cells ran before.

:class:`ExecutionPlan` therefore shards cells with **topology affinity**:
a topology's cells never split across shards and stay in grid expansion
order, so its network sees the same warm-up sequence under every plan —
which is what makes the :class:`~repro.workload.matrix.MatrixReport`
byte-identical (:meth:`~repro.workload.matrix.MatrixReport.digest`) at any
worker count.  Every shard of every plan executes through
:func:`repro.exec.runner.run_shard`: the default sweep is one shard run in
the calling process (no worker processes, no spool files); with more
workers each shard's worker process streams per-cell results into a JSONL
spool that the parent polls for progress/ETA.  Either way the results
merge by grid position.  ``python -m repro`` exposes the engine on the
command line.

Two layers make repeated sweeps cheap without bending any of the above:
the content-addressed :class:`~repro.exec.cache.CellCache` serves
unchanged cells from disk (chain-keyed so warm plan-cache counters still
reproduce — see :mod:`repro.exec.cache`), and
:class:`~repro.exec.pool.WarmPool` keeps worker processes and their
per-topology networks alive across successive runs.  Both are
digest-neutral by construction.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    CacheError,
    CellCache,
    CellKeyer,
    IncrementalRunner,
    cell_cache_key,
    spec_fingerprint,
)
from .plan import ExecutionPlan, IndexedCell, Shard
from .pool import WarmPool
from .progress import ProgressReporter
from .runner import run_matrix_parallel
from .spool import (
    SpoolCursor,
    SpoolError,
    count_spooled,
    dump_spool_line,
    load_spool,
    shard_spool_path,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheError",
    "CellCache",
    "CellKeyer",
    "ExecutionPlan",
    "IncrementalRunner",
    "IndexedCell",
    "ProgressReporter",
    "Shard",
    "SpoolCursor",
    "SpoolError",
    "WarmPool",
    "cell_cache_key",
    "count_spooled",
    "dump_spool_line",
    "load_spool",
    "run_matrix_parallel",
    "shard_spool_path",
    "spec_fingerprint",
]
