"""Sharding a matrix grid across workers, with topology affinity.

The plan is a pure function of ``(matrix, workers)``: expansion assigns
every runnable cell a *position* (its index in grid expansion order, which
is the order reports list cells in), a topology's cells form a *group*,
and groups are distributed over shards by longest-processing-time-first
so shard loads balance.  A one-worker plan is a single shard holding
every group — that is the default, in-process sweep.  Two invariants
carry the engine's determinism guarantee:

* a topology's cells all land in one shard, in expansion order — its
  shared network is warmed by the same cells in the same order under
  every plan, so plan-cache counters (which are part of the report)
  reproduce exactly;
* shard composition and order depend only on the grid and the worker
  count, never on timing.

Affinity bounds useful parallelism at the number of distinct topologies;
planning more workers than topologies just leaves shards empty, so the
plan clamps itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..workload.matrix import MatrixCell, MatrixSpec


@dataclass(frozen=True)
class IndexedCell:
    """A runnable cell tagged with its grid expansion position.

    ``position`` is the cell's index in grid expansion (= report) order;
    the merge sorts emitted results by it, which is the whole merge.
    """

    position: int
    cell: MatrixCell


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the grid: whole topology groups, in order."""

    index: int
    cells: Tuple[IndexedCell, ...]

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def topologies(self) -> Tuple[str, ...]:
        """The distinct topologies this shard owns, in execution order."""
        seen: List[str] = []
        for indexed in self.cells:
            if indexed.cell.topology not in seen:
                seen.append(indexed.cell.topology)
        return tuple(seen)


def resolve_workers(workers: int) -> int:
    """Normalize a worker-count request (``0``/``None`` means all CPUs)."""
    if not workers:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


class ExecutionPlan:
    """A deterministic assignment of matrix cells to worker shards."""

    def __init__(
        self,
        matrix: MatrixSpec,
        shards: Tuple[Shard, ...],
        skipped: List[Dict[str, str]],
    ) -> None:
        self.matrix = matrix
        self.shards = shards
        self.skipped = skipped

    @property
    def cell_count(self) -> int:
        """Total runnable cells across every shard."""
        return sum(len(shard) for shard in self.shards)

    @classmethod
    def from_matrix(cls, matrix: MatrixSpec, workers: int) -> "ExecutionPlan":
        """Expand ``matrix`` and pack its topology groups into shards.

        Groups are placed largest-first onto the currently least-loaded
        shard (ties broken by shard index), then each shard's groups are
        reordered by first grid position so intra-shard execution order is
        independent of packing order.
        """
        cells, skipped = matrix.expand()
        groups: Dict[str, List[IndexedCell]] = {}
        for position, cell in enumerate(cells):
            groups.setdefault(cell.topology, []).append(
                IndexedCell(position, cell)
            )
        shard_count = min(resolve_workers(workers), len(groups))
        if not shard_count:
            return cls(matrix, (), skipped)
        # Largest group first; first-position tiebreak keeps packing stable
        # when two topologies have equally many cells.
        ordered = sorted(
            groups.values(), key=lambda group: (-len(group), group[0].position)
        )
        bins: List[List[List[IndexedCell]]] = [[] for _ in range(shard_count)]
        loads = [0] * shard_count
        for group in ordered:
            target = loads.index(min(loads))
            bins[target].append(group)
            loads[target] += len(group)
        shards = []
        for index, groups_in_bin in enumerate(bins):
            groups_in_bin.sort(key=lambda group: group[0].position)
            flat = tuple(
                indexed for group in groups_in_bin for indexed in group
            )
            shards.append(Shard(index=index, cells=flat))
        return cls(matrix, tuple(shards), skipped)

    def describe(self) -> List[Dict[str, object]]:
        """One row per shard (cells and topologies) for logs and the CLI."""
        return [
            {
                "shard": shard.index,
                "cells": len(shard),
                "topologies": list(shard.topologies),
            }
            for shard in self.shards
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(shard) for shard in self.shards]
        return f"ExecutionPlan(shards={sizes}, skipped={len(self.skipped)})"
