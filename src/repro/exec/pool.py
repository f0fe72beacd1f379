"""Warm worker pools: persistent processes and per-topology networks.

A multi-worker ``run_matrix_parallel`` normally pays two fixed costs per
call: spinning up a fresh ``ProcessPoolExecutor`` (process forks, imports)
and building every topology's network from scratch inside each worker (the
O(n²) routing-table construction).  For one-shot runs that is correct; for
sweep drivers, benchmarks and the CLI ``--repeat`` path that run grid
after grid in one process, it is the whole reason E18 measured a
parallel "speedup" below 1x.

:class:`WarmPool` keeps both warm:

* **processes** — one lazily created executor survives across
  ``run_matrix_parallel(..., pool=...)`` calls until :meth:`close` (or the
  ``with`` block) shuts it down; every plan given a pool runs there, a
  one-shard plan included;
* **networks** — :func:`checkout_network` is where the cell loop gets a
  cell's shared network, pooled or not.  Under a pool each worker process
  keeps the networks it has built in a module-level store keyed by
  ``(topology, delivery_mode)``; on the next run that lands a shard with
  the same topology on that worker, the stored network is recycled through
  :meth:`~repro.network.Network.reset_to_cold`, which keeps the graph and
  static routing table (the expensive part, and counter-neutral: the
  fault-free fast path records no plan events) while clearing the
  planner's memoized plans — so a recycled network is
  counter-indistinguishable from a freshly built one and report digests
  cannot drift.

Invalidation is explicit and generation-based: :meth:`WarmPool.invalidate`
bumps a generation token that rides in every shard payload; a worker
seeing a new generation drops its whole store before serving.  Call it
when the *meaning* of a topology name changes (e.g. code reload in a
long-lived driver); ordinary spec changes never need it, because the
driver resets the network before every cell anyway.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Tuple

from ..network.simulator import Network
from ..obs.profile import TOPOLOGY_BUILD, PhaseProfile, timed
from ..workload.spec import ScenarioSpec, build_topology
from .plan import resolve_workers

#: Worker-process-global network store: ``(topology, delivery_mode)`` ->
#: the network built for it, surviving across shard tasks.
_WORKER_NETWORKS: Dict[Tuple[str, str], Network] = {}

#: The pool generation the store was populated under (``None`` = never).
_WORKER_GENERATION: Optional[int] = None


def _bump(stats: Optional[Dict[str, int]], name: str) -> None:
    if stats is not None:
        stats[name] = stats.get(name, 0) + 1


def checkout_network(
    networks: Dict[str, Network],
    spec: ScenarioSpec,
    generation: Optional[int],
    stats: Optional[Dict[str, int]] = None,
    profile: Optional[PhaseProfile] = None,
) -> Network:
    """The per-topology shared network for ``spec``, built on first use.

    ``networks`` is the shard-local dict: the driver resets a network
    before every run, so sharing never changes a cell's metrics — it only
    amortizes the O(n²) routing construction and keeps fault-free
    delivery-plan caches warm across a shard's same-topology cells.
    ``generation`` is the warm pool's token, or ``None`` when pooling is
    off; with one, this process's warm store is consulted before building,
    and a network found there is recycled through ``reset_to_cold`` so its
    planner counters restart from zero.  ``profile`` is the shard's phase
    profile: a build (never a recycle) is timed as ``topology-build``.
    """
    network = networks.get(spec.topology)
    if network is not None:
        return network
    if generation is not None:
        global _WORKER_GENERATION
        if generation != _WORKER_GENERATION:
            _WORKER_NETWORKS.clear()
            _WORKER_GENERATION = generation
        warm = _WORKER_NETWORKS.get((spec.topology, spec.delivery_mode))
        if warm is not None:
            warm.reset_to_cold()
            networks[spec.topology] = warm
            _bump(stats, "pool_network_reuses")
            return warm
    with timed(profile, TOPOLOGY_BUILD):
        network = build_topology(spec.topology).build_network(
            delivery_mode=spec.delivery_mode
        )
    networks[spec.topology] = network
    if generation is not None:
        _WORKER_NETWORKS[(spec.topology, spec.delivery_mode)] = network
        _bump(stats, "pool_network_builds")
    return network


class WarmPool:
    """A persistent executor whose workers keep their networks warm.

    Use as a context manager around successive parallel runs::

        with WarmPool(workers=4) as pool:
            first, _ = run_matrix_parallel(grid_a, pool=pool)
            second, _ = run_matrix_parallel(grid_b, pool=pool)

    Both runs share one set of worker processes; any topology a worker
    already built is recycled cold.  Reports are byte-identical
    (:meth:`~repro.workload.matrix.MatrixReport.digest`) to one-shot runs.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = resolve_workers(workers or 0)
        self._generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        """The resolved worker-process count."""
        return self._workers

    @property
    def generation(self) -> int:
        """The current invalidation generation (grows monotonically)."""
        return self._generation

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        return self._executor

    def invalidate(self) -> None:
        """Force every worker to rebuild its networks on next checkout."""
        self._generation += 1

    def close(self) -> None:
        """Shut the executor down; the pool may be lazily reused after."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._executor is not None else "idle"
        return (
            f"WarmPool(workers={self._workers}, "
            f"generation={self._generation}, {state})"
        )
