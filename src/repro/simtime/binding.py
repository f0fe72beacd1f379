"""The timed overlay: pricing a synchronous run on the virtual clock.

The synchronous simulator is the repo's source of truth — every digest,
trace and differential test pins its results.  So the time model does not
*replace* delivery; it rides on top.  :class:`TimedOverlay` registers as
the network's message tap: while a REQUEST op executes, every delivery the
op makes (query fan-out, replies, payload round trip) is captured as a
*batch* of ``(source, destination)`` messages.  When the op completes, the
overlay prices the batches on the discrete-event kernel:

1. batch ``k`` starts when batch ``k - 1`` finished (the synchronous
   execution already established the causal order: replies follow queries,
   the payload follows the locate);
2. a message is a flat record and a kernel event is data — *this message
   reaches hop i of its path at time t*.  One handler prices every event:
   it looks the hop ``(u, v)`` up in the **station table** (the link's
   :class:`~repro.simtime.queueing.FifoResource`, latency and jitter, the
   far node's FIFO server and service time — resolved once per directed
   pair per run, both directions of a link sharing one queue), draws the
   seeded jitter, admits the message to the two queues and schedules its
   arrival at hop ``i + 1``;
3. queue state persists across requests, so an open-loop arrival stream
   genuinely contends: a hot centralized node's queue grows while
   checkerboard traffic spreads — hop counts become p50/p99 latency.

Request latency is the virtual time from the op's arrival to its last
batch completion, recorded in integer microseconds.  What the queue visits
observe on the way — waits, depths, per-window admissions and drops, link
busy time — is tallied while the request is priced and reaches the metrics
registry in **one flush per request**.  Everything is a pure function of
(trace, model, seed): replaying a trace reproduces every histogram bucket
exactly.

Beyond the latency number, the overlay keeps each request's **causal
timeline**: every priced message records its timed segments —
``link_wait`` / ``link_xfer`` / ``node_wait`` / ``node_service``, each
tagged with the link or node it happened on — under the batch's traffic
phase (``query``/``reply``/``payload``...).  Batches are barrier-ordered,
so the record *is* the request's DAG: batch edges are causal, messages
within a batch are concurrent, segments within a message sequential.  Two
consumers ride on it:

* the **critical path**: per batch, the barrier-defining message (latest
  completion, earliest launch index on ties) is the one every later batch
  actually waited for; its segment durations, blamed on
  ``phase:kind:where`` contributor keys, sum *exactly* to the request's
  latency and accumulate into the ``critical_path_us`` counter family —
  mergeable across cells and workers like every other instrument;
* **exemplars**: the slowest-``k`` requests per run keep their full
  timeline (seed-deterministic, excluded from result digests), exported
  as ``timelines-cell-NNNN.jsonl`` for ``python -m repro obs attribute``.
  The JSON form is built lazily — only for a request the reservoir keeps.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.exceptions import NoRouteError, UnknownNodeError
from .kernel import SimKernel
from .model import TimeModelSpec, link_key
from .queueing import FifoResource

#: One captured message: (source, destination).
_Message = Tuple[Hashable, Hashable]

#: One message being priced: ``[source, destination, path, segments,
#: completed]`` — raw node ids, ``(kind, where, start, end)`` float-second
#: segments, the arrival time (``None`` = dropped by a queue-wait timeout).
_Priced = List[object]
_PATH, _SEGMENTS, _COMPLETED = 2, 3, 4

#: What the hop ``u -> v`` contends on and costs: ``(link_key, link queue,
#: latency, jitter, repr(v), v's service queue or None, service time)``.
_Station = Tuple[str, FifoResource, float, float, str, Optional[FifoResource], float]

#: Microseconds per virtual second (latency histograms are integer-valued).
_US = 1_000_000

#: How many slowest requests keep their full timeline per run.
SLOWEST_K = 8


def _to_us(seconds: float) -> int:
    """Virtual seconds as integer microseconds (histograms are
    integer-valued; one microsecond of quantization is far below any
    modeled latency).  The per-visit paths spell this out inline."""
    return round(seconds * _US)


class TimedOverlay:
    """Prices one run's requests on the virtual clock (see module doc).

    ``metrics`` must have had ``enable_timing()`` called; the overlay
    writes latency, queue-wait, queue-depth, timeout, link-busy, timeline
    and critical-path instruments directly.  Attach with
    ``network.attach_tap(overlay)``; the driver begins/finishes a capture
    around each REQUEST op and calls :meth:`finalize` once after the run's
    last op.
    """

    def __init__(
        self,
        network,
        model: TimeModelSpec,
        seed: int,
        metrics,
        exemplar_k: int = SLOWEST_K,
    ) -> None:
        self._network = network
        self._model = model
        self._metrics = metrics
        self._window_us = metrics.timeline.width_us
        self._kernel = SimKernel()
        #: Jitter stream: consumed in kernel event order, so run and replay
        #: draw identically.
        self._jitter = random.Random(f"{seed}/simtime")
        #: Queues by undirected link key / node repr, and the stations
        #: (one per directed pair) that point into them.
        self._links: Dict[str, FifoResource] = {}
        self._nodes: Dict[str, FifoResource] = {}
        self._stations: Dict[Tuple[Hashable, Hashable], _Station] = {}
        #: Captured batches of the in-flight request: (phase, messages).
        self._batches: List[Tuple[str, List[_Message]]] = []
        self._capturing = False
        self._arrival = 0.0
        self._horizon = 0.0
        self._sequence = 0
        #: Tallies of the request being priced: per-visit waits and depths,
        #: per-window ``[admitted, dropped, depth_peak]``, link busy, drops.
        self._waits_us: List[int] = []
        self._depths: List[int] = []
        self._windows: Dict[int, List[int]] = {}
        self._busy_us: Dict[str, int] = {}
        self._timeouts = 0
        self._exemplar_k = exemplar_k
        #: Min-heap of (latency_us, -sequence, record): the smallest entry
        #: is evicted first, so ties on latency keep the *earlier* request
        #: — a total, seed-deterministic order.
        self._exemplars: List[Tuple[int, int, Dict[str, object]]] = []

    # -- the network tap ------------------------------------------------------

    def on_delivery(
        self, source: Hashable, reached, category: str, mode: str
    ) -> None:
        """One delivery fan-out: ``source`` to every reached destination."""
        if not self._capturing:
            return
        pairs = [
            (source, destination)
            for destination in sorted(reached, key=repr)
            if destination != source
        ]
        if pairs:
            self._batches.append((category, pairs))

    def on_replies(
        self, responders, client: Hashable, mode: str
    ) -> None:
        """Reply messages: each responder back to the querying client."""
        if not self._capturing:
            return
        pairs = [
            (responder, client)
            for responder in sorted(responders, key=repr)
            if responder != client
        ]
        if pairs:
            self._batches.append(("reply", pairs))

    def on_payload(self, source: Hashable, destination: Hashable) -> None:
        """One point-to-point application message."""
        if not self._capturing:
            return
        if source != destination:
            self._batches.append(("payload", [(source, destination)]))

    # -- request pricing ------------------------------------------------------

    def begin_request(self, at: float) -> None:
        """Start capturing the message batches of the request arriving at
        virtual time ``at``."""
        self._capturing = True
        self._batches = []
        self._arrival = at

    def finish_request(
        self, span_id: Optional[int] = None, ok: bool = True
    ) -> Tuple[int, float]:
        """Price the captured batches; returns ``(latency_us,
        completed_at)``.

        Batches run under barrier causality: batch ``k`` launches when
        batch ``k - 1``'s last surviving message arrived.  A batch whose
        every message was dropped (queue-wait timeout) ends the pipeline —
        nothing downstream of it could have been sent.

        ``span_id`` (the driver's ``request`` span) and ``ok`` ride along
        into the exemplar record, tying an exported timeline back to its
        span tree and outcome.
        """
        self._capturing = False
        kernel = self._kernel
        clock = self._arrival
        priced: List[Tuple[str, List[_Priced]]] = []
        critical: List[Tuple[str, str, str, int]] = []
        critical_us: Dict[str, int] = {}
        for phase, batch in self._batches:
            messages: List[_Priced] = []
            for source, destination in batch:
                message = [
                    source, destination, self._path(source, destination),
                    [], None,
                ]
                messages.append(message)
                kernel.schedule(clock, message)
            kernel.run(self._visit)
            priced.append((phase, messages))
            # The barrier-defining message: latest completion; ties keep
            # the earliest launch index (messages preserve batch order).
            barrier = None
            for message in messages:
                completed = message[_COMPLETED]
                if completed is not None and (
                    barrier is None or completed > barrier[_COMPLETED]
                ):
                    barrier = message
            if barrier is None:
                break
            for kind, where, start, end in barrier[_SEGMENTS]:
                # Microseconds as a difference of rounded endpoints, so the
                # blamed segments telescope exactly: per batch they sum to
                # completion - launch, across batches to the request's
                # latency (each batch launches at its predecessor's
                # completion).
                segment_us = round(end * _US) - round(start * _US)
                if segment_us:
                    key = f"{phase}:{kind}:{where}"
                    critical_us[key] = critical_us.get(key, 0) + segment_us
                    critical.append((phase, kind, where, segment_us))
            clock = max(clock, barrier[_COMPLETED])
        self._batches = []
        if clock > self._horizon:
            self._horizon = clock
        latency_us = _to_us(clock - self._arrival)
        self._metrics.observe_priced_request(
            latency_us, _to_us(clock), ok, self._waits_us, self._depths,
            self._windows, self._busy_us, self._timeouts, critical_us,
        )
        self._waits_us, self._depths = [], []
        self._windows, self._busy_us, self._timeouts = {}, {}, 0
        # Lazy exemplars: the record is built only for a request the
        # reservoir keeps — exactly the set an eager push-then-pop-the-
        # minimum would retain.
        rank = (latency_us, -self._sequence)
        reservoir = self._exemplars
        full = len(reservoir) >= self._exemplar_k
        if not full or (reservoir and rank > reservoir[0][:2]):
            entry = rank + (self._exemplar(
                latency_us, clock, span_id, ok, priced, critical
            ),)
            heapq.heappush(reservoir, entry)
            if full:
                heapq.heappop(reservoir)
        self._sequence += 1
        return latency_us, clock

    def _exemplar(
        self, latency_us: int, completed: float, span_id: Optional[int],
        ok: bool, priced: List[Tuple[str, List[_Priced]]],
        critical: List[Tuple[str, str, str, int]],
    ) -> Dict[str, object]:
        """This request's JSON-safe timeline record."""
        return {
            "request": self._sequence,
            "span": span_id,
            "ok": ok,
            "arrival_us": _to_us(self._arrival),
            "completed_us": _to_us(completed),
            "latency_us": latency_us,
            "batches": [
                {
                    "phase": phase,
                    "messages": [
                        {
                            "source": repr(source),
                            "destination": repr(destination),
                            "dropped": arrived is None,
                            "segments": [
                                [kind, where, _to_us(start), _to_us(end)]
                                for kind, where, start, end in segments
                            ],
                        }
                        for source, destination, _, segments, arrived
                        in messages
                    ],
                }
                for phase, messages in priced
            ],
            "critical_path": [list(entry) for entry in critical],
        }

    def exemplars(self) -> List[Dict[str, object]]:
        """The slowest-``k`` request timelines, slowest first (ties by
        arrival order) — JSON-safe, deterministic, digest-excluded."""
        ranked = sorted(
            self._exemplars, key=lambda entry: (-entry[0], -entry[1])
        )
        return [record for _, _, record in ranked]

    def _path(self, source: Hashable, destination: Hashable) -> List[Hashable]:
        """The node sequence a message traverses.

        ``ideal`` delivery models the complete network of section 2: one
        virtual link straight to the destination (overrides keyed on that
        pair still price it).  Other modes walk the *surviving* shortest
        path — the same tables the synchronous delivery used, so fault ops
        replayed from a trace reroute the overlay identically.  A
        destination the synchronous run reached but the surviving table
        cannot route (multicast tree edge cases) falls back to the direct
        virtual link.
        """
        if self._network.delivery_mode == "ideal":
            return [source, destination]
        table = self._network.planner.routing_table()
        try:
            return table.shortest_path(source, destination)
        except (NoRouteError, UnknownNodeError):
            return [source, destination]

    def _station(self, u: Hashable, v: Hashable) -> _Station:
        """Resolve (once per directed pair per run) what the hop ``u -> v``
        contends on and costs: the undirected link's queue and timing, and
        ``v``'s service queue (``None`` when its service time is zero)."""
        key = link_key(u, v)
        timing = self._model.link_timing(key)
        link = self._links.setdefault(key, FifoResource(timing.capacity))
        node_repr = repr(v)
        service = self._model.service_time(node_repr)
        node = None
        if service > 0.0:
            node = self._nodes.setdefault(node_repr, FifoResource(1))
        station = self._stations[(u, v)] = (
            key, link, timing.latency, timing.jitter, node_repr, node, service
        )
        return station

    def _visit(self, time: float, message: _Priced, hop: int) -> None:
        """The kernel's event handler: ``message`` reaches node ``hop`` of
        its path at ``time`` — completing there, or crossing the next link
        and the far node's service queue and scheduling its next arrival.
        A queue-wait timeout drops it: nothing further is scheduled and
        ``completed`` stays ``None``.
        """
        path = message[_PATH]
        if hop >= len(path) - 1:
            message[_COMPLETED] = time
            return
        pair = (path[hop], path[hop + 1])
        station = self._stations.get(pair) or self._station(*pair)
        key, link, hold, jitter, node_repr, node, service = station
        if jitter:
            hold += self._jitter.uniform(0.0, jitter)
        segments = message[_SEGMENTS]
        end = self._admit(
            link, time, hold, segments, "link_wait", "link_xfer", key
        )
        if end is None:
            return
        busy_us = self._busy_us
        busy_us[key] = busy_us.get(key, 0) + round(hold * _US)
        if node is not None:
            end = self._admit(
                node, end, service, segments, "node_wait", "node_service",
                node_repr,
            )
            if end is None:
                return
        self._kernel.schedule(end, message, hop + 1)

    def _admit(
        self, resource: FifoResource, at: float, hold: float,
        segments: List[Tuple[str, str, float, float]],
        wait_kind: str, service_kind: str, where: str,
    ) -> Optional[float]:
        """One queue visit, tallied for the per-request flush; returns when
        service ended, or ``None`` for a message the timeout dropped.
        Zero-length segments are omitted — they carry no blame and the
        rest stay contiguous from launch to completion."""
        start, end, wait, dropped, depth = resource.acquire(
            at, hold, self._model.timeout, self._arrival
        )
        self._waits_us.append(round(wait * _US))
        self._depths.append(depth)
        index = round(at * _US) // self._window_us
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = [0, 0, 0]
        if depth > window[2]:
            window[2] = depth
        if dropped:
            window[1] += 1
            self._timeouts += 1
            return None
        window[0] += 1
        if wait > 0.0:
            segments.append((wait_kind, where, at, start))
        if end > start:
            segments.append((service_kind, where, start, end))
        return end

    # -- end of run -----------------------------------------------------------

    def finalize(self) -> None:
        """Close out the run: record link busy-time and the virtual
        horizon, so summaries can derive per-link utilization."""
        self._metrics.set_virtual_horizon(_to_us(self._horizon))
