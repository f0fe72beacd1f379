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

Admission is one flat function, :meth:`FifoResource.acquire` — a priced hop
is one call of it per queue — and the common shapes never search: a
drained server starts the message at once, an interval at the end of the
timeline is appended or merged into the last block without a ``bisect``.
What a visit observed is what the call returns; the overlay tallies it and
the metrics layer reports it (``queue_wait``, ``queue_depth``,
``message_timeouts``, ``link_busy_us``).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import List, Tuple


def _fill_gap(timeline: List[List[float]], start: float, end: float) -> None:
    """Insert busy interval ``[start, end]`` ahead of the timeline's last
    block, merging exact neighbours (a queued message starts exactly where
    its predecessor ends)."""
    # ``[start]`` sorts just before every ``[start, ...]`` interval.
    index = bisect_left(timeline, [start])
    before = timeline[index - 1] if index > 0 else None
    after = timeline[index]
    if before is not None and before[1] == start:
        before[1] = end
        if after[0] == end:
            before[1] = after[1]
            del timeline[index]
    elif after[0] == end:
        after[0] = start
    else:
        timeline.insert(index, [start, end])


class FifoResource:
    """A ``capacity``-server queue on the virtual clock.

    :meth:`acquire` admits one message needing ``hold`` seconds of service
    and returns its service window: the earliest idle gap of ``hold``
    seconds at or after the message's arrival, across all servers.  A
    positive ``timeout`` drops the message instead when its wait would
    exceed it (the timeline is left untouched; a dropped message never
    occupies a server).

    Passing a ``watermark`` — a lower bound on every *future* arrival the
    caller will ever submit — lets the resource first discard the busy
    intervals ending at or before it: they can neither delay a future
    message nor host one, and the timelines stay short.
    """

    __slots__ = ("_timelines", "_in_flight")

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        #: Per-server sorted, non-overlapping ``[start, end]`` busy
        #: intervals (exactly-adjacent intervals are merged on insert, so
        #: a saturated server is one long block).
        self._timelines: List[List[List[float]]] = [
            [] for _ in range(capacity)
        ]
        #: Completion times of admitted messages (a min-heap) for depth
        #: sampling, pruned as the clock passes them.
        self._in_flight: List[float] = []

    def acquire(
        self,
        now: float,
        hold: float,
        timeout: float = 0.0,
        watermark: float = 0.0,
    ) -> Tuple[float, float, float, bool, int]:
        """Admit one message at ``now`` for ``hold`` seconds of service.

        Returns ``(start, end, wait, dropped, depth)``; ``depth`` is the
        queue depth the message saw on arrival: the messages admitted
        before it that are still queued or in service at ``now``.  When
        ``dropped`` is true the message never got a server: ``wait`` is
        the wait it refused to suffer and ``start``/``end`` equal ``now``.
        """
        if hold < 0:
            raise ValueError("hold must be non-negative")
        timelines = self._timelines
        if watermark > 0.0:
            for timeline in timelines:
                dead = 0
                for interval in timeline:
                    if interval[1] > watermark:
                        break
                    dead += 1
                if dead:
                    del timeline[:dead]
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= now:
            heappop(in_flight)
        depth = len(in_flight)
        # The earliest time >= now where ``hold`` seconds fit, over servers.
        server, start = None, now
        for timeline in timelines:
            candidate = now
            if timeline and timeline[-1][1] > now:  # else: drained, no scan
                for busy_start, busy_end in timeline:
                    if candidate + hold <= busy_start:
                        break
                    if busy_end > candidate:
                        candidate = busy_end
            if server is None or candidate < start:
                server, start = timeline, candidate
                if candidate == now:
                    break
        wait = start - now
        if timeout > 0.0 and wait > timeout:
            return now, now, wait, True, depth
        end = start + hold
        if hold > 0.0:
            if server and start <= server[-1][0]:
                _fill_gap(server, start, end)
            elif server and server[-1][1] == start:
                server[-1][1] = end
            else:
                server.append([start, end])
        heappush(in_flight, end)
        return start, end, wait, False, depth
