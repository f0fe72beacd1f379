"""FIFO queueing resources: where congestion actually happens.

Every link and every node of a timed run is one :class:`FifoResource` — a
``capacity``-server queue in the style of SNIPPETS.md's simpy idiom, but
*lazy*: instead of parking message objects in a store, each server keeps
its timeline of busy intervals and an arriving message claims the
earliest idle gap at or after its arrival.

The gap search (rather than a single busy-until watermark) matters
because the overlay prices requests one at a time: a message of a later
request may be admitted *after* a message of an earlier request that
arrives *later* in virtual time (the earlier request's hop was pushed out
by upstream queueing).  Serving strictly in admission order would make
such a message wait behind one that hasn't arrived yet — spurious
serialization that compounds into congestion collapse at utilizations
nowhere near 1.  Gap scheduling keeps service in arrival-time order up to
the width of the busy intervals: a resource under its capacity has gaps
and stays fast, an overloaded one consolidates into one solid busy block
and queues grow without bound — exactly real queueing behavior.

The resource accumulates the congestion record the metrics layer reports:
per-message queue wait, queue depth sampled at arrival, total busy
seconds (utilization), admissions and timeout drops.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class QueueStats:
    """A resource's cumulative congestion record."""

    admitted: int
    dropped: int
    busy_seconds: float
    peak_depth: int
    #: Busy intervals discarded by :meth:`FifoResource.prune` — how much
    #: timeline the watermark actually reclaimed (0 means pruning never
    #: fired or never found a dead interval).
    pruned_intervals: int = 0


class FifoResource:
    """A ``capacity``-server queue on the virtual clock.

    :meth:`acquire` admits one message needing ``hold`` seconds of service
    and returns its service window: the earliest idle gap of ``hold``
    seconds at or after the message's arrival, across all servers.  A
    positive ``timeout`` drops the message instead when its wait would
    exceed it (the timeline is left untouched; a dropped message never
    occupies a server).

    Passing a ``watermark`` — a lower bound on every *future* arrival the
    caller will ever submit — lets the resource discard busy intervals
    that can no longer constrain anything, keeping the timelines short.
    """

    __slots__ = ("_capacity", "_timelines", "_in_flight", "_admitted",
                 "_dropped", "_busy_seconds", "_peak_depth", "_pruned")

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        #: Per-server sorted, non-overlapping ``[start, end]`` busy
        #: intervals (exactly-adjacent intervals are merged on insert, so
        #: a saturated server is one long block).
        self._timelines: List[List[List[float]]] = [
            [] for _ in range(capacity)
        ]
        #: Completion times of admitted messages (a min-heap) for depth
        #: sampling, pruned as the clock passes them.
        self._in_flight: List[float] = []
        self._admitted = 0
        self._dropped = 0
        self._busy_seconds = 0.0
        self._peak_depth = 0
        self._pruned = 0

    @property
    def capacity(self) -> int:
        """Number of parallel servers."""
        return self._capacity

    def depth(self, now: float) -> int:
        """Messages still queued or in service at ``now``."""
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= now:
            heapq.heappop(in_flight)
        return len(in_flight)

    @staticmethod
    def _earliest_start(
        timeline: List[List[float]], now: float, hold: float
    ) -> float:
        """The earliest time >= ``now`` where ``hold`` seconds fit."""
        candidate = now
        for start, end in timeline:
            if candidate + hold <= start:
                break
            if end > candidate:
                candidate = end
        return candidate

    @staticmethod
    def _insert(timeline: List[List[float]], start: float, end: float) -> None:
        """Insert busy interval ``[start, end]``, merging exact neighbours
        (a queued message starts exactly where its predecessor ends)."""
        # ``[start]`` sorts just before every ``[start, ...]`` interval.
        index = bisect_left(timeline, [start])
        before = timeline[index - 1] if index > 0 else None
        after = timeline[index] if index < len(timeline) else None
        if before is not None and before[1] == start:
            before[1] = end
            if after is not None and after[0] == end:
                before[1] = after[1]
                del timeline[index]
        elif after is not None and after[0] == end:
            after[0] = start
        else:
            timeline.insert(index, [start, end])

    def prune(self, watermark: float) -> None:
        """Drop busy intervals ending at or before ``watermark``.

        Safe when every future :meth:`acquire` uses ``now >= watermark``:
        such intervals can neither delay a future message nor host one.
        """
        for timeline in self._timelines:
            keep = 0
            while keep < len(timeline) and timeline[keep][1] <= watermark:
                keep += 1
            if keep:
                del timeline[:keep]
                self._pruned += keep

    def acquire(
        self,
        now: float,
        hold: float,
        timeout: float = 0.0,
        watermark: float = 0.0,
    ) -> Tuple[float, float, float, bool, int]:
        """Admit one message at ``now`` for ``hold`` seconds of service.

        Returns ``(start, end, wait, dropped, depth)``; ``depth`` is the
        queue depth the message saw on arrival (:meth:`depth` at ``now``,
        before its own admission).  When ``dropped`` is true the message
        never got a server: ``wait`` is the wait it refused to suffer and
        ``start``/``end`` equal ``now``.
        """
        if hold < 0:
            raise ValueError("hold must be non-negative")
        if watermark > 0.0:
            self.prune(watermark)
        depth = self.depth(now)
        best_server = 0
        best_start = None
        for index, timeline in enumerate(self._timelines):
            start = self._earliest_start(timeline, now, hold)
            if best_start is None or start < best_start:
                best_server = index
                best_start = start
                if start == now:
                    break
        start = best_start if best_start is not None else now
        wait = start - now
        if timeout > 0.0 and wait > timeout:
            self._dropped += 1
            return now, now, wait, True, depth
        end = start + hold
        if hold > 0.0:
            self._insert(self._timelines[best_server], start, end)
        self._admitted += 1
        self._busy_seconds += hold
        heapq.heappush(self._in_flight, end)
        if depth + 1 > self._peak_depth:
            self._peak_depth = depth + 1
        return start, end, wait, False, depth

    def stats(self) -> QueueStats:
        """The cumulative congestion record."""
        return QueueStats(
            admitted=self._admitted,
            dropped=self._dropped,
            busy_seconds=self._busy_seconds,
            peak_depth=self._peak_depth,
            pruned_intervals=self._pruned,
        )
