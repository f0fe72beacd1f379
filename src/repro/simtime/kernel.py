"""The discrete-event kernel: a heap of timed data events on a virtual clock.

The kernel is the package's only scheduler and the reason ``repro.simtime``
stays deterministic: time is integer nanoseconds, moved only when an event
is popped, never a reading of any OS clock, and two instants tie exactly
when the model says they do.
An event is plain data — the tuple ``(time, seq, message, hop)`` on the heap:
*which* message enters *which* hop of its route *when*.  Nothing callable is
stored; :meth:`SimKernel.run` hands every popped event to the one handler
its caller passes.  Events scheduled for the same instant fire in
scheduling order — a monotonically increasing sequence number breaks heap
ties, so two messages entering a queue "simultaneously" are served in the
order the simulation issued them (and the heap never compares messages).

The timed overlay brings the kernel only the events whose order is not
already known: a batch's launches (one instant, launch order) and a
message's arrival at its destination never touch the heap; a multi-hop
message's entry into each later hop does, and the heap is drained before
the next batch launches.  Queueing state (see :mod:`.queueing`) persists
across batches and requests, which is how requests that overlap in virtual
time contend for the same links even though the synchronous simulation
executes them one at a time.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

_INFINITY = float("inf")


class SimKernel:
    """A heap-ordered virtual-time event loop.

    The clock is the time of the most recently fired event; it starts at 0
    and only :meth:`run` advances it.  Scheduling an event in the clock's
    past is allowed (a later-simulated request may have arrived earlier
    in virtual time); resources clamp service starts themselves, so the
    kernel only promises *ordering*: within one :meth:`run`, events fire in
    nondecreasing ``(time, seq)`` order.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, object, int]] = []
        self._seq = 0
        self._now = 0

    def schedule(self, at: int, message: object, hop: int = 0) -> None:
        """Record that ``message`` enters hop ``hop`` of its route at ``at``.

        ``at`` must be finite and non-negative (it may trail the clock
        for late-scheduled but early-arriving events).  ``message`` is
        opaque to the kernel: it is stored, never called or compared.
        """
        if not 0.0 <= at < _INFINITY:  # also rejects NaN
            raise ValueError(f"event time must be finite and >= 0, got {at!r}")
        heapq.heappush(self._heap, (at, self._seq, message, hop))
        self._seq += 1

    def run(self, handler: Callable[[int, object, int], None]) -> int:
        """Fire every pending event (including ones the handler schedules)
        as ``handler(time, message, hop)``.

        Returns the clock after the batch.  The handler may call
        :meth:`schedule`; the heap keeps global ``(time, seq)`` order, so a
        hop event scheduling the next hop interleaves correctly with every
        other in-flight message.
        """
        while self._heap:
            at, _, message, hop = heapq.heappop(self._heap)
            if at > self._now:
                self._now = at
            handler(at, message, hop)
        return self._now
