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
is one call of it per queue, with no helper under it — and the common
shapes never search: a drained server starts the message at once, an
interval at the end of the timeline is appended or merged into the last
block without a ``bisect``, and a gap ahead of the last block is filled in
place.  Dead intervals are pruned once per watermark: the overlay passes
the request's arrival, which its many visits share, so only a visit that
brings a higher watermark walks the timelines.
A station owns its tallies: ``acquire`` returns the service window and
counts the visit itself, in counts whose size does not grow with the
number of visits; the overlay writes them into the registry once per run.

Time is integer nanoseconds, so waits, busy intervals and window bounds
are exact; a tally turns ns into microseconds as ``(ns + 500) // 1000``.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

#: Log-spaced microsecond bounds (1-2-5 per decade, 1us .. 500s) shared by
#: every latency-shaped histogram, so merges across runs and matrix cells
#: always see an identical bucket layout.
LATENCY_BUCKETS_US: Tuple[int, ...] = tuple(
    mantissa * 10 ** exponent for exponent in range(9) for mantissa in (1, 2, 5)
)


class FifoResource:
    """A ``capacity``-server queue on the virtual clock, and its tallies.

    :meth:`acquire` admits one message needing ``hold`` ns of service and
    returns its service window: the earliest idle gap of ``hold`` ns at or
    after the message's arrival, across all servers.  A positive
    ``timeout`` drops the message instead when its wait would exceed it
    (the timeline is left untouched; a dropped message never occupies a
    server).

    Passing a ``watermark`` — a lower bound on every *future* arrival the
    caller will ever submit — lets the resource first discard the busy
    intervals ending at or before it: they can neither delay a future
    message nor host one, and the timelines stay short.  The resource
    prunes only when the watermark rises above the one it last pruned at;
    admitting an interval that ends at or below that one lowers it again,
    so the timelines are always exactly those of a prune on every call.

    Every visit is counted here: ``waits[i]`` visits waited in bucket
    ``i`` of :data:`LATENCY_BUCKETS_US` (the last overflow), ``wait_us`` in
    all, ``depths[d]`` saw depth ``d``; ``windows`` maps an arrival window
    (of ``width_us``) to ``[admitted, dropped, depth_peak]``; a ``link``
    sums ``busy_us``.  Each visit is counted in whole microseconds.
    """

    __slots__ = ("_timelines", "_floor", "_in_flight", "_width_ns", "_link",
                 "_index", "_window", "waits", "wait_us", "depths", "windows",
                 "busy_us")

    def __init__(self, capacity: int, width_us: int, link: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if width_us < 1:
            raise ValueError("window width must be at least 1 microsecond")
        #: Per-server sorted, non-overlapping ``[start, end]`` busy
        #: intervals (exactly-adjacent intervals are merged on insert, so
        #: a saturated server is one long block).
        self._timelines: List[List[List[int]]] = [
            [] for _ in range(capacity)
        ]
        #: The watermark the timelines were last pruned at: every interval
        #: ends after it, so a watermark at or below it finds nothing.
        self._floor = 0
        #: Completion times of admitted messages (a min-heap) for depth
        #: sampling, pruned as the clock passes them.
        self._in_flight: List[int] = []
        self._width_ns = width_us * 1000
        self._link = link
        self._index = -1  # the window ``_window`` counts
        self.waits = [0] * (len(LATENCY_BUCKETS_US) + 1)
        self.wait_us = 0
        self.depths: List[int] = []
        self.windows: Dict[int, List[int]] = {}
        self.busy_us = 0

    def acquire(
        self,
        now: int,
        hold: int,
        timeout: int = 0,
        watermark: int = 0,
    ) -> Optional[Tuple[int, int]]:
        """Admit one message at ``now`` for ``hold`` ns of service:
        its service window ``(start, end)``, or ``None`` when the timeout
        drops it.  Either way the visit is counted, with the wait it
        suffered (or refused) and the depth it saw on arrival — the
        messages admitted before it still queued or in service at ``now``.
        """
        if hold < 0:
            raise ValueError("hold must be non-negative")
        timelines = self._timelines
        if watermark > self._floor:  # only a risen watermark finds the dead
            self._floor = watermark
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
        # The earliest time >= now where ``hold`` ns fit, over servers.
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
        # The visit's tallies, counted whether or not it is dropped.
        try:
            self.depths[depth] += 1
        except IndexError:  # a queue grows by at most one message a visit
            self.depths.append(1)
        if wait:
            wait_us = (wait + 500) // 1000
            self.wait_us += wait_us
            self.waits[bisect_left(LATENCY_BUCKETS_US, wait_us)] += 1
        else:
            self.waits[0] += 1
        index = (now + 500) // self._width_ns  # its rounded microsecond's window
        if index != self._index:
            self._index = index
            self._window = self.windows.setdefault(index, [0, 0, 0])
        window = self._window
        if depth > window[2]:
            window[2] = depth
        if timeout and wait > timeout:
            window[1] += 1
            return None
        window[0] += 1
        end = start + hold
        if hold:
            if server and start <= server[-1][0]:
                # A gap ahead of the last block; merge exact neighbours (a
                # queued message starts exactly where its predecessor
                # ends).  ``[start]`` sorts just before ``[start, ...]``.
                at = bisect_left(server, [start])
                after = server[at]
                if at and server[at - 1][1] == start:
                    if after[0] == end:
                        server[at - 1][1] = after[1]
                        del server[at]
                    else:
                        server[at - 1][1] = end
                elif after[0] == end:
                    after[0] = start
                else:
                    server.insert(at, [start, end])
            elif server and server[-1][1] == start:
                server[-1][1] = end
            else:
                server.append([start, end])
            if end <= self._floor:  # busy below the floor: prune next time
                self._floor = 0
        heappush(in_flight, end)
        if self._link:
            self.busy_us += (hold + 500) // 1000
        return start, end
