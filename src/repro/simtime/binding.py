"""The timed overlay: pricing a synchronous run on the virtual clock.

The synchronous simulator is the repo's source of truth — every digest,
trace and differential test pins its results.  So the time model does not
*replace* delivery; it rides on top.  :class:`TimedOverlay` registers as
the network's message tap: while a REQUEST op executes, every delivery the
op makes (query fan-out, replies, payload round trip) reaches the tap as a
*batch* of ``(source, destination)`` messages, and the tap prices it on
the spot:

1. batch ``k`` starts when batch ``k - 1`` finished (the synchronous
   execution already established the causal order: replies follow queries,
   the payload follows the locate);
2. a message is a flat record that walks its **route program**:
   ``(source, destination)`` is compiled once, by the lookup that first
   misses it, into a tuple of hops, each hop one or two queue records —
   the link's
   :class:`~repro.simtime.queueing.FifoResource`, latency and jitter, then
   the far node's FIFO server and service time, both directions of a link
   sharing one queue — and the labels of the marks they make.  Pricing a
   hop is one loop body around one ``acquire``: draw the seeded jitter,
   admit, mark.  Outside ``ideal`` delivery the programs live as long as
   the planner's routing table: a different table object (a fault, a
   recovery) drops them all;
3. the event kernel orders only what has no order yet.  A batch's
   launches share one instant and fire in launch order, so they are
   priced directly, and a message's last hop writes its completion time;
   only a multi-hop path's arrivals at its next link are kernel events,
   interleaving by ``(time, seq)`` with the batch's other messages.  The
   kernel exists only under a planner: ``ideal`` programs are one hop, so
   an ``ideal`` batch has nothing to order and runs no kernel;
4. queue state persists across requests, so an open-loop arrival stream
   genuinely contends: a hot centralized node's queue grows while
   checkerboard traffic spreads — hop counts become p50/p99 latency.

Virtual time is integer nanoseconds, converted from seconds once per hop
compiled and once per arrival; a microsecond figure is an endpoint's
``(ns + 500) // 1000``, and request latency the completion's minus the
arrival's.  Every instrument is a per-run tally kept by the code that does
the work — queue stations count their visits, the overlay its requests —
and reaches the metrics registry in **one flush per run**.  Everything is
a pure function of (trace, model, seed): replaying a trace reproduces
every histogram bucket exactly.

Beyond the latency number, the overlay keeps each request's **causal
timeline**: every priced message marks its launch and each service
window, and its timed segments follow — ``link_wait`` / ``link_xfer`` /
``node_wait`` / ``node_service``, each tagged with the link or node it
happened on — under the batch's traffic phase
(``query``/``reply``/``payload``...).  Batches are barrier-ordered,
so the record *is* the request's DAG: batch edges are causal, messages
within a batch are concurrent, segments within a message sequential.  Two
consumers ride on it:

* the **critical path**: per batch, the barrier-defining message (latest
  completion, earliest launch index on ties) is the one every later batch
  actually waited for; its segments, blamed on ``phase:kind:where``
  contributor keys, telescope *exactly* to the request's latency and
  accumulate into the ``critical_path_us`` counter family — mergeable
  across cells and workers like every other instrument;
* **exemplars**: the slowest-``k`` requests per run keep their full
  timeline (seed-deterministic, excluded from result digests), exported
  as ``timeline`` records for ``python -m repro obs attribute``.
  The JSON form is built lazily — only for a request the reservoir keeps.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import zip_longest
from math import inf
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..core.exceptions import NoRouteError, UnknownNodeError
from .kernel import SimKernel
from .model import TimeModelSpec, link_key
from .queueing import LATENCY_BUCKETS_US, FifoResource

#: One captured message: (source, destination).
_Message = Tuple[Hashable, Hashable]

#: One hop: per queue ``(resource, hold_ns, max_jitter_ns)``.
_Hop = Tuple[Tuple[FifoResource, int, int], ...]
#: A route program: its hops, the ``kind:where`` label of each mark after
#: the launch (per queue: wait, then service) and its last hop's index.
_Program = Tuple[Tuple[_Hop, ...], Tuple[str, ...], int]

#: One message being priced: ``[pair, program, marks, completed]`` — the
#: captured ``(source, destination)``, its route program, its launch and
#: admitted service windows ``[launch, start0, end0, ...]``, the arrival
#: time (``None`` = dropped by a queue-wait timeout).
_Priced = List[object]
_PROGRAM, _MARKS, _COMPLETED = 1, 2, 3

#: Nanoseconds per virtual second: a figure's ticks are ``int(seconds *
#: _NS + 0.5)``, with no ``round`` call on the path a request takes.
_NS = 1_000_000_000

#: How many slowest requests keep their full timeline per run.
SLOWEST_K = 8


class _Programs(Dict[_Message, _Program]):
    """Route programs by message pair; a lookup that misses compiles it."""

    def __init__(self, compile_pair: Callable[[_Message], _Program]) -> None:
        super().__init__()
        self._compile = compile_pair

    def __missing__(self, pair: _Message) -> _Program:
        return self._compile(pair)


class TimedOverlay:
    """Prices one run's requests on the virtual clock (see module doc).

    ``metrics`` must have had ``enable_timing()`` called; :meth:`finalize`
    writes the run's latency, queue-wait, queue-depth, timeout, link-busy,
    timeline and critical-path tallies into it.  Attach with
    ``network.attach_tap(overlay)``; the driver begins/finishes a request
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
        self._width_us = metrics.timeline.width_us
        self._objective_us = metrics.latency_objective_us
        self._timeout = int(model.timeout * _NS + 0.5)
        #: Jitter stream: consumed in pricing order (launches in launch
        #: order, later hops in kernel event order), so run and replay
        #: draw identically.
        self._jitter = random.Random(f"{seed}/simtime").random
        #: Who routes the messages: the planner the delivery itself used,
        #: or in ``ideal`` mode nobody (see :meth:`_compile`).
        ideal = network.delivery_mode == "ideal"
        self._planner = None if ideal else network.planner
        #: Orders later hops; ``ideal`` programs are one hop, so it has none.
        self._kernel = None if ideal else SimKernel()
        #: Queues by undirected link key / node repr, the hops (one per
        #: directed pair per run, with their labels) that point into them,
        #: and the route programs (one per message pair per routing table).
        self._links: Dict[str, FifoResource] = {}
        self._nodes: Dict[str, FifoResource] = {}
        self._hops: Dict[_Message, Tuple[_Hop, Tuple[str, ...]]] = {}
        self._programs = _Programs(self._compile)
        self._table = None
        #: ``reached`` frozenset -> its members in repr order (the planner
        #: hands the same few sets back request after request).
        self._ordered: Dict[FrozenSet[Hashable], List[Hashable]] = {}
        #: The request in flight: whether its taps still price, its
        #: arrival, its next batch's launch (ns), its priced batches.
        self._capturing = False
        self._arrival = self._clock = self._horizon = 0
        self._priced: List[Tuple[str, List[_Priced], Optional[_Priced]]] = []
        self._sequence = 0
        #: The run's request tallies: requests per latency bucket,
        #: completion window -> ``[served, failed, latency_sum_us,
        #: bad_latency, latency_us_max]``, blamed microseconds per phase
        #: per segment label.
        self._latencies = [0] * (len(LATENCY_BUCKETS_US) + 1)
        self._served: Dict[int, List[int]] = {}
        self._window_index = -1  # the completion window ``_window`` counts
        self._window: List[int] = []
        self._blame: Dict[str, Dict[str, int]] = defaultdict(Counter)
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
        pairs = [(source, target) for target in ordered if target != source]
        if pairs:
            self._price(category, pairs)

    def on_replies(self, responders, client: Hashable, mode: str) -> None:
        """Reply messages: each responder back to the querying client, in
        the ``repr`` order ``Network.query`` hands them over."""
        if not self._capturing:
            return
        pairs = [(responder, client) for responder in responders
                 if responder != client]
        if pairs:
            self._price("reply", pairs)

    def on_payload(self, source: Hashable, destination: Hashable) -> None:
        """One point-to-point application message."""
        if self._capturing and source != destination:
            self._price("payload", [(source, destination)])

    # -- request pricing ------------------------------------------------------

    def begin_request(self, at: float) -> None:
        """Start pricing the batches of the request arriving at virtual
        time ``at`` (seconds; finite and >= 0, else ``ValueError``)."""
        if not 0.0 <= at < inf:  # also rejects NaN
            raise ValueError(f"arrival time {at!r} is not finite and >= 0")
        self._capturing = True
        self._priced = []
        self._arrival = self._clock = int(at * _NS + 0.5)

    def _price(self, phase: str, pairs: List[_Message]) -> None:
        """Price one batch under barrier causality: its messages launch at
        the request's clock, which moves to the latest arrival.  A batch
        that lost every message (queue-wait timeouts) ends the request —
        nothing downstream of it could have been sent."""
        planner = self._planner
        if planner is not None:
            # Asked once per message even when the program is compiled:
            # under faults the question is a route event, and route events
            # are reported.  A batch runs inside one fault revision.
            for _ in pairs:
                table = planner.routing_table()
            if table is not self._table:
                self._table = table
                self._programs = _Programs(self._compile)
        programs = self._programs
        clock = self._clock
        messages = [[pair, programs[pair], [clock], None] for pair in pairs]
        visit = self._visit
        # Launches share one instant and fire in launch order: no heap.
        for message in messages:
            visit(clock, message, 0)
        if self._kernel is not None:
            self._kernel.run(visit)
        # The barrier-defining message: latest completion; ties keep the
        # earliest launch index (messages preserve batch order).
        barrier = None
        for message in messages:
            completed = message[_COMPLETED]
            if completed is not None and (
                barrier is None or completed > barrier[_COMPLETED]
            ):
                barrier = message
        self._priced.append((phase, messages, barrier))
        if barrier is None:
            self._capturing = False
            return
        # Its marks, blamed on its labels between microsecond endpoints,
        # telescope to completion - launch.
        tally = self._blame[phase]
        start_us = (clock + 500) // 1000
        for label, end in zip(barrier[_PROGRAM][1], barrier[_MARKS][1:]):
            end_us = (end + 500) // 1000
            if end_us != start_us:
                tally[label] += end_us - start_us
                start_us = end_us
        self._clock = barrier[_COMPLETED]

    def finish_request(
        self, span_id: Optional[int] = None, ok: bool = True
    ) -> Tuple[int, float]:
        """Close the request its taps priced: ``(latency_us, completed_at)``
        (the completion in virtual seconds).

        ``span_id`` (the driver's ``request`` span) and ``ok`` ride along
        into the exemplar record, tying an exported timeline back to its
        span tree and outcome.
        """
        self._capturing = False
        clock = self._clock
        if clock > self._horizon:
            self._horizon = clock
        completed_us = (clock + 500) // 1000
        latency_us = completed_us - (self._arrival + 500) // 1000
        self._latencies[bisect_left(LATENCY_BUCKETS_US, latency_us)] += 1
        index = completed_us // self._width_us
        if index != self._window_index:
            self._window_index = index
            self._window = self._served.setdefault(index, [0, 0, 0, 0, 0])
        window = self._window
        window[0] += 1
        window[1] += not ok
        window[2] += latency_us
        window[3] += latency_us > self._objective_us
        if latency_us > window[4]:
            window[4] = latency_us
        # Lazy exemplars: the record is built only for a request the
        # reservoir keeps — exactly the set an eager push-then-pop-the-
        # minimum would retain.
        rank = (latency_us, -self._sequence)
        reservoir = self._exemplars
        full = len(reservoir) >= self._exemplar_k
        if not full or (reservoir and rank > reservoir[0][:2]):
            entry = rank + (self._exemplar(latency_us, span_id, ok),)
            heapq.heappush(reservoir, entry)
            if full:
                heapq.heappop(reservoir)
        self._sequence += 1
        return latency_us, clock / _NS

    def _exemplar(
        self, latency_us: int, span_id: Optional[int], ok: bool
    ) -> Dict[str, object]:
        """The request in flight's JSON-safe timeline record."""
        return {
            "request": self._sequence,
            "span": span_id,
            "ok": ok,
            "arrival_us": (self._arrival + 500) // 1000,
            "completed_us": (self._clock + 500) // 1000,
            "latency_us": latency_us,
            "batches": [
                {
                    "phase": phase,
                    "messages": [
                        {
                            "source": repr(message[0][0]),
                            "destination": repr(message[0][1]),
                            "dropped": message[_COMPLETED] is None,
                            "segments": [
                                [*label.split(":", 1), start_us, end_us]
                                for label, start_us, end_us
                                in _segments(message)
                            ],
                        }
                        for message in messages
                    ],
                }
                for phase, messages, _ in self._priced
            ],
            "critical_path": [
                [phase, *label.split(":", 1), end_us - start_us]
                for phase, _, barrier in self._priced if barrier is not None
                for label, start_us, end_us in _segments(barrier)
                if end_us != start_us
            ],
        }

    def exemplars(self) -> List[Dict[str, object]]:
        """The slowest-``k`` request timelines, slowest first (ties by
        arrival order) — JSON-safe, deterministic, digest-excluded."""
        ranked = sorted(
            self._exemplars, key=lambda entry: (-entry[0], -entry[1])
        )
        return [record for _, _, record in ranked]

    def _compile(self, pair: _Message) -> _Program:
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
        steps = [
            self._hops.get(step) or self._hop(*step)
            for step in zip(path, path[1:])
        ]
        program = self._programs[pair] = (
            tuple(queues for queues, _ in steps),
            tuple(label for _, labels in steps for label in labels),
            len(steps) - 1,
        )
        return program

    def _hop(self, u: Hashable, v: Hashable) -> Tuple[_Hop, Tuple[str, ...]]:
        """Resolve (once per directed pair per run) what the hop ``u -> v``
        contends on, costs in ns and labels its marks: the undirected
        link's queue, then ``v``'s service queue unless it serves in 0."""
        key = link_key(u, v)
        timing = self._model.link_timing(key)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = FifoResource(
                timing.capacity, self._width_us, link=True
            )
        queues = [(link, int(timing.latency * _NS + 0.5),
                   int(timing.jitter * _NS + 0.5))]
        labels = [f"link_wait:{key}", f"link_xfer:{key}"]
        node_repr = repr(v)
        service = int(self._model.service_time(node_repr) * _NS + 0.5)
        if service:
            node = self._nodes.get(node_repr)
            if node is None:
                node = self._nodes[node_repr] = FifoResource(1, self._width_us)
            queues.append((node, service, 0))
            labels += (f"node_wait:{node_repr}", f"node_service:{node_repr}")
        hop = self._hops[(u, v)] = (tuple(queues), tuple(labels))
        return hop

    def _visit(self, time: int, message: _Priced, hop: int) -> None:
        """Price one hop: ``message`` enters hop ``hop`` of its program at
        ``time`` and visits the hop's queues in order — one ``acquire``
        each, its service window marked on the message.  After the last hop
        ``completed`` is written; otherwise the kernel, whose event handler
        this is, learns when it enters the next hop.  A queue-wait timeout
        drops it: ``completed`` stays ``None``."""
        hops, _, last = message[_PROGRAM]
        marks = message[_MARKS]
        timeout = self._timeout
        arrival = self._arrival
        for resource, hold, jitter in hops[hop]:
            if jitter:
                hold += int(jitter * self._jitter())
            window = resource.acquire(time, hold, timeout, arrival)
            if window is None:
                return
            marks += window
            time = window[1]
        if hop == last:
            message[_COMPLETED] = time
        else:  # only a planner routes more than one hop: the kernel exists
            self._kernel.schedule(time, message, hop + 1)  # type: ignore[union-attr]

    # -- end of run -----------------------------------------------------------

    def finalize(self) -> None:
        """Close out the run: write the stations' and the requests' tallies
        and the virtual horizon into the metrics registry, once."""
        stations = [*self._links.values(), *self._nodes.values()]
        visits: Dict[int, List[int]] = {}
        for station in stations:
            for index, (admitted, dropped, peak) in station.windows.items():
                window = visits.setdefault(index, [0, 0, 0])
                window[0] += admitted
                window[1] += dropped
                window[2] = max(window[2], peak)
        self._metrics.observe_timed_run(
            latencies=self._latencies,
            requests=self._served,
            waits=[sum(column) for column in zip(*(st.waits for st in stations))],
            wait_us=sum(station.wait_us for station in stations),
            depths=[sum(column) for column in zip_longest(
                *(st.depths for st in stations), fillvalue=0
            )],
            visits=visits,
            # Only links a message crossed (dropped ones stop early).
            link_busy_us={key: link.busy_us
                          for key, link in self._links.items() if link.windows},
            critical_us={f"{phase}:{label}": blamed_us
                         for phase, tally in self._blame.items()
                         for label, blamed_us in tally.items()},
            horizon_us=(self._horizon + 500) // 1000,
        )


def _segments(message: _Priced) -> List[Tuple[str, int, int]]:
    """A message's ``(label, start_us, end_us)`` segments: per admitted
    visit its wait, then its service, zero-length ones omitted, between
    microsecond endpoints."""
    marks = message[_MARKS]
    segments = []
    time = marks[0]
    start_us = (time + 500) // 1000
    # A drop ends the marks early, and with them the segments.
    for label, end in zip(message[_PROGRAM][1], marks[1:]):
        if end > time:
            end_us = (end + 500) // 1000
            segments.append((label, start_us, end_us))
            start_us, time = end_us, end
    return segments
