"""Content-addressed per-cell result caching — build-system semantics.

Every matrix cell is a pure function of its spec: the seed derives from
the grid coordinates (:func:`~repro.workload.spec.stable_seed`), the
random streams derive from the seed, and the driver resets its network
before running.  That makes cell results cacheable the way a build system
caches object files: key them by content, store the ``CellResult`` JSON,
and a re-run of a 1000-cell grid after editing one regime only recomputes
the changed cells.

One wrinkle keeps the key from being *just* the spec digest: cells share
one network per topology, so a cell's ``plan_cache`` hit/miss counters —
which are part of its reported result — depend on which same-topology
cells ran before it and warmed the planner's fault-free caches.  The key
therefore chains: each cell's key folds in a running digest of every
*predecessor* cell spec on its topology, so a cached entry is only served
when the entire warm-up prefix is identical too.  When a mid-group cell misses,
:class:`IncrementalRunner` replays the cache-served predecessors first
(cheap cells, no I/O), so the recomputed cell sees exactly the planner
state a cold run would have given it.

Cache entries are one JSON file per key under ``root/<key[:2]>/<key>.json``
written via a temp file + atomic rename; stale (schema or key mismatch)
and corrupt (undecodable) entries are counted and recomputed, never fatal.
Hit/miss/stale/corrupt counters live in a
:class:`~repro.obs.registry.MetricsRegistry` and surface through the
report's digest-excluded ``cache`` section and the ``--obs`` export.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..network.simulator import Network
from ..obs.profile import CACHE_WARMUP, PhaseProfile, timed
from ..obs.registry import Counter, MetricsRegistry
from ..workload.matrix import CellResult, MatrixCell, run_cell
from ..workload.trace import canonical_digest

#: Bump on any change to the cached payload's meaning: the CellResult
#: schema, the driver's semantics, the chain construction.  Part of every
#: key, so a bump orphans (rather than misreads) old entries.
CACHE_SCHEMA_VERSION = 1

#: Counter names a cache tracks (also the report's ``cache`` section keys).
CACHE_COUNTERS = ("hits", "misses", "stale", "corrupt", "stored", "warmups")


class CacheError(ValueError):
    """A cache entry contradicts a live recomputation (poisoned cache)."""


def spec_fingerprint(cell: MatrixCell) -> str:
    """SHA-256 over one cell's full identity (spec, coordinates, seed).

    The seed is already a pure function of the coordinates, but it rides
    along explicitly so a change to the derivation itself also moves every
    fingerprint.
    """
    return canonical_digest({
        "spec": cell.spec.to_dict(),
        "topology": cell.topology,
        "strategy": cell.strategy,
        "regime": cell.regime,
        "key": cell.key,
        "seed": cell.spec.seed,
    })


class CellKeyer:
    """Derives chained cache keys for cells visited in execution order.

    Feed it every cell of a topology-affine shard — per-topology
    subsequences are identical under every plan, which is why runs at any
    worker count share cache entries — and it returns each cell's key while
    advancing that topology's chain.  The chain advances on every cell,
    hit or miss: warm planner state moves whenever a cell runs, whether or
    not this particular pass actually executed it.
    """

    def __init__(self, schema_version: int = CACHE_SCHEMA_VERSION) -> None:
        self._schema = schema_version
        self._chains: Dict[str, str] = {}

    def key(self, cell: MatrixCell) -> str:
        """The cache key for ``cell`` at this point in the visit order: the
        schema version, the cell's fingerprint and its predecessors' chain,
        hashed.  The one fingerprint also extends the chain."""
        chain = self._chains.get(cell.topology, "")
        fingerprint = spec_fingerprint(cell)
        self._chains[cell.topology] = canonical_digest(chain + fingerprint)
        return canonical_digest({"schema": self._schema, "cell": fingerprint, "chain": chain})


class CellCache:
    """A content-addressed store of :class:`CellResult` JSON payloads.

    Instances are cheap (no index is kept in memory; the filesystem is the
    index) and safe to create per run or per worker over one shared
    ``root``: writers land entries with a temp file + ``os.replace``, and
    distinct keys never collide.  Tolerance is total — a stale or corrupt
    entry counts itself and reads as a miss, so the worst a damaged cache
    dir can do is cost a recomputation.
    """

    def __init__(
        self,
        root,
        schema_version: int = CACHE_SCHEMA_VERSION,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters: Dict[str, Counter] = {
            name: self.registry.counter(f"cache_{name}")
            for name in CACHE_COUNTERS
        }

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one of the :data:`CACHE_COUNTERS`."""
        self._counters[name].inc(amount)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot, one int per :data:`CACHE_COUNTERS` entry."""
        return {
            name: int(self._counters[name].value) for name in CACHE_COUNTERS
        }

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fan-out, git-object
        style)."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[CellResult]:
        """The cached result under ``key``, or ``None`` (miss/stale/
        corrupt)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fp:
                payload = json.load(fp)
        except FileNotFoundError:
            self.count("misses")
            return None
        except (OSError, ValueError):
            self.count("corrupt")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self.schema_version
            or payload.get("key") != key
        ):
            self.count("stale")
            return None
        try:
            cell_result = CellResult.from_dict(payload["cell"])
        except (KeyError, TypeError, ValueError):
            self.count("corrupt")
            return None
        self.count("hits")
        return cell_result

    def store(self, key: str, cell_result: CellResult) -> Path:
        """Persist ``cell_result`` under ``key`` (atomic, last write
        wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": self.schema_version,
            "key": key,
            "cell": cell_result.to_dict(),
        }
        # Unique temp name: concurrent runs over one cache dir may race on
        # the same key, and each must rename a fully written file.  A
        # failed write (a full disk) leaves no temp file behind.
        tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fp:
                json.dump(payload, fp, indent=2, sort_keys=True)
                fp.write("\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.count("stored")
        return path


def merge_cache_stats(totals: Dict[str, int], stats: Dict[str, int]) -> None:
    """Fold one worker's counter snapshot into ``totals`` (associative)."""
    for name, value in stats.items():
        totals[name] = totals.get(name, 0) + int(value)


def canonical_cell_payload(cell_result: CellResult) -> Dict[str, object]:
    """A cell's payload with its (nondeterministic) wall clock dropped."""
    payload = cell_result.to_dict()
    payload.pop("wall_seconds", None)
    return payload


class IncrementalRunner:
    """Drives cache consultation for one in-order pass over a shard.

    The cell loop (:func:`repro.exec.runner.run_shard`) visits a shard's
    cells in order and asks, per cell: :meth:`lookup` (may serve a cached
    result), :meth:`warmup` (before executing a miss, replay the
    cache-served same-topology predecessors so the shared network's
    planner state matches a cold run), and :meth:`record` (store what
    just ran).

    ``reads=False`` keeps the cache write-through only: runs that must
    produce per-cell artifacts (kept results, traces, the obs export)
    cannot serve cells from a store that holds only ``CellResult`` JSON,
    but they still populate it for later plain runs.
    """

    def __init__(self, cache: CellCache, reads: bool = True) -> None:
        self.cache = cache
        self._reads = reads
        self._keyer = CellKeyer(cache.schema_version)
        self._pending: Dict[str, List[Tuple[MatrixCell, CellResult]]] = {}
        self._key: Optional[str] = None

    def lookup(self, cell: MatrixCell) -> Optional[CellResult]:
        """Serve ``cell`` from the cache, or ``None`` to execute it."""
        self._key = self._keyer.key(cell)
        if not self._reads:
            return None
        cached = self.cache.load(self._key)
        if cached is not None:
            # Served but not executed: if a later same-topology cell
            # misses, this cell must be replayed first to warm the network.
            self._pending.setdefault(cell.topology, []).append((cell, cached))
        return cached

    def warmup(
        self,
        cell: MatrixCell,
        network: Network,
        profile: Optional[PhaseProfile],
    ) -> None:
        """Replay pending cache-served predecessors on ``cell``'s topology.

        Runs them in their original order over the shared ``network``,
        discarding outputs — except to cross-check each replay against the
        entry the cache served: a disagreement means the store was poisoned
        (hand-edited, or written by semantically different code under the
        same schema version), and silently proceeding would have already
        put the wrong result in this run's report.  Each replay is timed
        as ``cache-warmup`` on the shard's ``profile``.
        """
        for earlier, served in self._pending.pop(cell.topology, []):
            with timed(profile, CACHE_WARMUP):
                replayed, _ = run_cell(earlier, network=network)
            self.cache.count("warmups")
            if canonical_cell_payload(replayed) != \
                    canonical_cell_payload(served):
                raise CacheError(
                    f"cache entry for cell {earlier.spec.name!r} does not "
                    f"match its recomputation — the cache dir "
                    f"{self.cache.root} is poisoned; delete it (or bump "
                    f"CACHE_SCHEMA_VERSION) and re-run"
                )

    def record(self, cell_result: CellResult) -> None:
        """Store the result of the cell most recently given to
        :meth:`lookup`."""
        if self._key is not None:
            self.cache.store(self._key, cell_result)
            self._key = None
