"""The timed overlay: pricing a synchronous run on the virtual clock.

The synchronous simulator is the repo's source of truth — every digest,
trace and differential test pins its results.  So the time model does not
*replace* delivery; it rides on top.  :class:`TimedOverlay` registers as
the network's message tap: while a REQUEST op executes, every delivery the
op makes (query fan-out, replies, payload round trip) is captured as a
*batch* of ``(source, destination)`` messages.  When the op completes, the
overlay prices the batches:

1. batch ``k`` starts when batch ``k - 1`` finished (the synchronous
   execution already established the causal order: replies follow queries,
   the payload follows the locate);
2. a message is a flat record that walks its **route program**:
   ``(source, destination)`` is compiled once into a tuple of hops, each
   hop one or two queue records — the link's
   :class:`~repro.simtime.queueing.FifoResource`, latency and jitter, then
   the far node's FIFO server and service time, both directions of a link
   sharing one queue.  Pricing a hop is one loop body around one
   ``acquire``: draw the seeded jitter, admit, tally.  Outside ``ideal``
   delivery the programs live as long as the planner's routing table: a
   different table object (a fault, a recovery) drops them all;
3. the event kernel orders only what has no order yet.  A batch's
   launches share one instant and fire in launch order, so they are
   priced directly, and a message's last hop writes its completion time;
   only a multi-hop path's arrivals at its next link are kernel events,
   interleaving by ``(time, seq)`` with the batch's other messages;
4. queue state persists across requests, so an open-loop arrival stream
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
from math import inf
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..core.exceptions import NoRouteError, UnknownNodeError
from .kernel import SimKernel
from .model import TimeModelSpec, link_key
from .queueing import FifoResource

#: One captured message: (source, destination).
_Message = Tuple[Hashable, Hashable]

#: One queue visit: ``(resource, hold, jitter, wait_kind, service_kind,
#: where, is_link)`` — the queue, its service seconds and maximum jitter,
#: the segment kinds a visit records, the link key or node repr it happens
#: on, and whether ``hold`` counts as link busy time.
_Queue = Tuple[FifoResource, float, float, str, str, str, bool]
#: One hop ``u -> v``: the link's queue, then ``v``'s service queue unless
#: its service time is zero.  A route program is a tuple of hops.
_Hop = Tuple[_Queue, ...]

#: One message being priced: ``[pair, program, segments, completed]`` — the
#: captured ``(source, destination)``, its route program, ``(kind, where,
#: start, end)`` float-second segments, the arrival time (``None`` =
#: dropped by a queue-wait timeout).
_Priced = List[object]
_PROGRAM, _SEGMENTS, _COMPLETED = 1, 2, 3

#: Microseconds per virtual second: latencies are recorded as
#: ``round(seconds * _US)`` — histograms are integer-valued, and one
#: microsecond of quantization is far below any modeled latency.
_US = 1_000_000

#: How many slowest requests keep their full timeline per run.
SLOWEST_K = 8


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
        self._model = model
        self._metrics = metrics
        self._window_us = metrics.timeline.width_us
        self._kernel = SimKernel()
        #: Jitter stream: consumed in pricing order (launches in launch
        #: order, later hops in kernel event order), so run and replay
        #: draw identically.
        self._jitter = random.Random(f"{seed}/simtime").random
        #: Who routes the messages: the planner the delivery itself used,
        #: or in ``ideal`` mode nobody (see :meth:`_compile`).
        ideal = network.delivery_mode == "ideal"
        self._planner = None if ideal else network.planner
        #: Queues by undirected link key / node repr, the hops (one per
        #: directed pair per run) that point into them, and the route
        #: programs (one per message pair per routing table) built of hops.
        self._links: Dict[str, FifoResource] = {}
        self._nodes: Dict[str, FifoResource] = {}
        self._hops: Dict[_Message, _Hop] = {}
        self._programs: Dict[_Message, Tuple[_Hop, ...]] = {}
        self._table = None
        #: ``reached`` frozenset -> its members in repr order (the planner
        #: hands the same few sets back request after request).
        self._ordered: Dict[FrozenSet[Hashable], List[Hashable]] = {}
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
        ordered = self._ordered.get(reached)
        if ordered is None:
            ordered = self._ordered[reached] = sorted(reached, key=repr)
        pairs = [
            (source, destination)
            for destination in ordered
            if destination != source
        ]
        if pairs:
            self._batches.append((category, pairs))

    def on_replies(self, responders, client: Hashable, mode: str) -> None:
        """Reply messages: each responder back to the querying client."""
        if not self._capturing:
            return
        if len(responders) > 1:
            responders = sorted(responders, key=repr)
        pairs = [
            (responder, client)
            for responder in responders
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
        planner = self._planner
        programs = self._programs
        visit = self._visit
        clock = self._arrival
        priced: List[Tuple[str, List[_Priced]]] = []
        critical: List[Tuple[str, str, str, int]] = []
        critical_us: Dict[str, int] = {}
        for phase, batch in self._batches:
            if not 0.0 <= clock < inf:  # also rejects NaN
                raise ValueError(f"launch time {clock!r} is not finite and >= 0")
            messages: List[_Priced] = []
            for pair in batch:
                if planner is not None:
                    # Asked once per message even when the program is
                    # compiled: under faults the question is a route
                    # event, and route events are reported.
                    table = planner.routing_table()
                    if table is not self._table:
                        self._table = table
                        programs = self._programs = {}
                program = programs.get(pair) or self._compile(pair)
                message = [pair, program, [], None]
                messages.append(message)
                # Launches share one instant and fire in launch order:
                # no heap needed to find out which comes next.
                visit(clock, message, 0)
            self._kernel.run(visit)
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
            # Microseconds as a difference of rounded endpoints, so the
            # blamed segments telescope exactly: per batch they sum to
            # completion - launch, across batches to the request's latency
            # (each batch launches at its predecessor's completion).  The
            # segments are contiguous: each starts where the last ended.
            start_us = round(clock * _US)
            for kind, where, _, end in barrier[_SEGMENTS]:
                end_us = round(end * _US)
                segment_us = end_us - start_us
                if segment_us:
                    key = f"{phase}:{kind}:{where}"
                    critical_us[key] = critical_us.get(key, 0) + segment_us
                    critical.append((phase, kind, where, segment_us))
                    start_us = end_us
            clock = max(clock, barrier[_COMPLETED])
        self._batches = []
        if clock > self._horizon:
            self._horizon = clock
        latency_us = round((clock - self._arrival) * _US)
        self._metrics.observe_priced_request(
            latency_us, round(clock * _US), ok, self._waits_us, self._depths,
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
            "arrival_us": round(self._arrival * _US),
            "completed_us": round(completed * _US),
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
                                [kind, where, round(start * _US),
                                 round(end * _US)]
                                for kind, where, start, end in segments
                            ],
                        }
                        for (source, destination), _, segments, arrived
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

    def _compile(self, pair: _Message) -> Tuple[_Hop, ...]:
        """Compile (once per pair per routing table) a message's route
        program: one hop per link of the node sequence it traverses.

        ``ideal`` delivery models the complete network of section 2: one
        virtual link straight to the destination (overrides keyed on that
        pair still price it).  Other modes walk the *surviving* shortest
        path — the tables the synchronous delivery used, so fault ops
        replayed from a trace reroute the overlay identically.  A
        destination the synchronous run reached but the surviving table
        cannot route (multicast tree edge cases) gets the direct link too.
        """
        path: List[Hashable] = list(pair)
        if self._table is not None:
            try:
                path = self._table.shortest_path(*pair)
            except (NoRouteError, UnknownNodeError):
                pass
        program = self._programs[pair] = tuple(
            self._hops.get(step) or self._hop(*step)
            for step in zip(path, path[1:])
        )
        return program

    def _hop(self, u: Hashable, v: Hashable) -> _Hop:
        """Resolve (once per directed pair per run) what the hop ``u -> v``
        contends on and costs: the undirected link's queue and timing,
        then ``v``'s service queue unless its service time is zero."""
        key = link_key(u, v)
        timing = self._model.link_timing(key)
        link = self._links.setdefault(key, FifoResource(timing.capacity))
        queues: List[_Queue] = [(
            link, timing.latency, timing.jitter,
            "link_wait", "link_xfer", key, True,
        )]
        node_repr = repr(v)
        service = self._model.service_time(node_repr)
        if service > 0.0:
            node = self._nodes.setdefault(node_repr, FifoResource(1))
            queues.append((
                node, service, 0.0, "node_wait", "node_service", node_repr,
                False,
            ))
        hop = self._hops[(u, v)] = tuple(queues)
        return hop

    def _visit(self, time: float, message: _Priced, hop: int) -> None:
        """Price one hop: ``message`` enters hop ``hop`` of its program at
        ``time`` and visits the hop's queues in order — one ``acquire``
        each, tallied for the per-request flush.  After the last hop it
        has arrived and ``completed`` is written; otherwise the kernel,
        whose event handler this is, learns when it enters the next hop.
        A queue-wait timeout drops it: nothing further happens and
        ``completed`` stays ``None``.  Zero-length segments are omitted —
        they carry no blame and the rest stay contiguous.
        """
        program = message[_PROGRAM]
        segments = message[_SEGMENTS]
        timeout = self._model.timeout
        arrival = self._arrival
        windows = self._windows
        for resource, hold, jitter, wait_kind, service_kind, where, is_link \
                in program[hop]:
            if jitter:
                hold += jitter * self._jitter()  # = uniform(0.0, jitter)
            start, end, wait, dropped, depth = resource.acquire(
                time, hold, timeout, arrival
            )
            self._waits_us.append(round(wait * _US) if wait else 0)
            self._depths.append(depth)
            index = round(time * _US) // self._window_us
            window = windows.get(index)
            if window is None:
                window = windows[index] = [0, 0, 0]
            if depth > window[2]:
                window[2] = depth
            if dropped:
                window[1] += 1
                self._timeouts += 1
                return
            window[0] += 1
            if wait > 0.0:
                segments.append((wait_kind, where, time, start))
            if end > start:
                segments.append((service_kind, where, start, end))
            if is_link:
                busy_us = self._busy_us
                busy_us[where] = busy_us.get(where, 0) + round(hold * _US)
            time = end
        hop += 1
        if hop == len(program):
            message[_COMPLETED] = time
        else:
            self._kernel.schedule(time, message, hop)

    # -- end of run -----------------------------------------------------------

    def finalize(self) -> None:
        """Close out the run: record link busy-time and the virtual
        horizon, so summaries can derive per-link utilization."""
        self._metrics.set_virtual_horizon(round(self._horizon * _US))
