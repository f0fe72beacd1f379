"""The store-and-forward network simulator.

:class:`Network` binds together the communication graph, the nodes' posting
caches (one :class:`~repro.network.cache.PostingStore`), routing tables, the
logical clock, fault injection and message-pass accounting.  Match-making
strategies and the service model run *on top of* a ``Network``: they decide
which nodes to address; the network delivers the messages and charges the
hops.

Delivery modes
--------------
``unicast``
    each addressed node gets its own point-to-point message routed along a
    shortest path (cost = sum of distances);
``multicast``
    one message flows down a BFS tree covering the addressed nodes
    (cost = number of tree edges — the paper's spanning-tree broadcast);
``ideal``
    every addressed node costs exactly one hop, which models the complete
    network of section 2 regardless of the underlying topology.  This mode is
    what the lower-bound experiments use, because the paper's ``m(i,j) =
    #P(i) + #Q(j)`` applies to complete networks.

Locate is an intersection
-------------------------
The paper's match is ``P(i) ∩ Q(j) ≠ ∅`` and :meth:`Network.query` computes
it as one: every posting lives in the network's
:class:`~repro.network.cache.PostingStore`, which knows the holders of a
port, so the answering nodes are ``holders(port) ∩ reached`` — walked in
``reached``'s own order, which fixes the order of records, responders, tap
calls and tracer events.  Every reply is then priced from the one routing
row of the client (distances are symmetric), the row the unicast plan of
the same query already built; no node of ``Q(j)`` that holds nothing is
visited, and no responder starts a search of its own.
"""

from __future__ import annotations

import itertools
import random
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..core.exceptions import NodeDownError, UnknownNodeError
from ..core.types import Address, Port, PostRecord, freshest, freshness_key
from .broadcast import DeliveryOutcome, flood
from .cache import PostingStore
from .delivery import DeliveryPlanner
from .events import EventLoop
from .faults import CRASH_NODE, LINK_DOWN, LINK_UP, RECOVER_NODE, FaultEvent, FaultPlan
from .graph import Graph
from ..obs.profile import ROUTING_TABLE, phase
from ..obs.spans import active_tracer
from .routing import RoutingTable
from .stats import POST, QUERY, REPLY, PAYLOAD, MessageStats

#: Delivery modes accepted by :meth:`Network.deliver`.
DELIVERY_MODES = ("unicast", "multicast", "ideal")


class QueryOutcome(NamedTuple):
    """Result of querying a set of nodes for a port.

    An immutable tuple record (one is built per locate): construct it by
    keyword or, on the hot path, positionally in field order.
    """

    records: Tuple[PostRecord, ...]
    responding_nodes: FrozenSet[Hashable]
    queried_nodes: FrozenSet[Hashable]
    query_hops: int
    reply_hops: int

    @property
    def found(self) -> bool:
        """Whether any queried node knew an address for the port."""
        return bool(self.records)

    def freshest(self) -> Optional[PostRecord]:
        """The freshest record found, or ``None``."""
        return freshest(self.records)


class Network:
    """A simulated store-and-forward network.

    Parameters
    ----------
    graph:
        The communication graph.  It is copied defensively so later mutation
        of the argument does not affect the simulator.
    delivery_mode:
        Default delivery mode for post/query traffic (see module docstring).
    seed:
        Seed of the network's private random generator (used only by
        randomised helpers such as random node selection).
    """

    def __init__(
        self,
        graph: Graph,
        delivery_mode: str = "multicast",
        seed: int = 0,
    ) -> None:
        if delivery_mode not in DELIVERY_MODES:
            raise ValueError(
                f"unknown delivery mode {delivery_mode!r}; "
                f"expected one of {DELIVERY_MODES}"
            )
        self._graph = graph.copy()
        self._delivery_mode = delivery_mode
        self._seed = seed
        # The node identifiers in graph order (a dict for O(1) membership).
        self._nodes: Dict[Hashable, None] = dict.fromkeys(self._graph.nodes)
        self._postings = PostingStore(self._nodes)
        with phase(ROUTING_TABLE):
            self._routing = RoutingTable(self._graph)
        self._faults = FaultPlan()
        self._stats = MessageStats()
        # All routing/planning work for every delivery mode goes through the
        # planner, which memoizes per fault-plan revision.
        self._planner = DeliveryPlanner(
            self._graph,
            self._routing,
            self._faults,
            self._stats,
        )
        self._clock = EventLoop()
        self._rng = random.Random(seed)
        self._timestamps = itertools.count(1)
        #: Optional message tap (repro.simtime's timed overlay).  The tap
        #: only *observes* deliveries; it never changes what is delivered,
        #: which is the digest-neutrality contract of timed runs.
        self._tap = None

    # -- structure ----------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The (full, fault-free) communication graph."""
        return self._graph

    @property
    def routing(self) -> RoutingTable:
        """Routing tables over the fault-free graph."""
        return self._routing

    @property
    def planner(self) -> DeliveryPlanner:
        """The fault-aware delivery planner (single source of routing
        truth)."""
        return self._planner

    @property
    def stats(self) -> MessageStats:
        """Cumulative message-pass statistics."""
        return self._stats

    @property
    def clock(self) -> EventLoop:
        """The logical clock / event loop."""
        return self._clock

    @property
    def faults(self) -> FaultPlan:
        """The current fault plan."""
        return self._faults

    @property
    def rng(self) -> random.Random:
        """The network's private random generator."""
        return self._rng

    @property
    def delivery_mode(self) -> str:
        """The default delivery mode."""
        return self._delivery_mode

    @property
    def size(self) -> int:
        """Number of nodes ``n``."""
        return self._graph.node_count

    @property
    def postings(self) -> PostingStore:
        """Every node's posting cache: the one store, and its only writer."""
        return self._postings

    def node_ids(self) -> List[Hashable]:
        """All node identifiers."""
        return list(self._nodes)

    def next_timestamp(self) -> int:
        """A fresh, strictly increasing timestamp for postings."""
        return next(self._timestamps)

    # -- fault injection ------------------------------------------------------

    def crash_node(self, node_id: Hashable) -> None:
        """Crash a node: it loses its cache and stops handling messages."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        self._postings.clear(node_id)
        self._faults.crash_node(node_id)

    def recover_node(self, node_id: Hashable) -> None:
        """Recover a crashed node (with an empty cache)."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        self._faults.recover_node(node_id)

    def fail_link(self, u: Hashable, v: Hashable) -> None:
        """Fail the link between ``u`` and ``v``."""
        if not self._graph.has_edge(u, v):
            raise UnknownNodeError((u, v))
        self._faults.fail_link(u, v)

    def restore_link(self, u: Hashable, v: Hashable) -> None:
        """Restore a failed link."""
        if not self._graph.has_edge(u, v):
            raise UnknownNodeError((u, v))
        self._faults.restore_link(u, v)

    def apply_fault(self, event: FaultEvent) -> None:
        """Apply one :class:`~repro.network.faults.FaultEvent` to this
        network.

        The execution primitive for fault timelines: each event moves the
        fault plan (and so the planner revision) exactly as the equivalent
        direct call would.
        """
        if event.kind == CRASH_NODE:
            self.crash_node(event.subject[0])
        elif event.kind == RECOVER_NODE:
            self.recover_node(event.subject[0])
        elif event.kind == LINK_DOWN:
            self.fail_link(*event.subject)
        elif event.kind == LINK_UP:
            self.restore_link(*event.subject)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault event kind {event.kind!r}")

    def node_is_up(self, node_id: Hashable) -> bool:
        """Whether ``node_id`` is currently up, by the one liveness record:
        the fault plan's ``crashed_nodes``."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return node_id not in self._faults.crashed_nodes

    def up_nodes(self) -> List[Hashable]:
        """Identifiers of all currently-up nodes."""
        return [node_id for node_id in self._nodes if self.node_is_up(node_id)]

    def reset_for_reuse(self) -> None:
        """Restore pristine state so another run can share this network.

        Scenario matrices run many cells over the same topology; rebuilding
        the network per cell repays the O(n²) all-pairs routing construction
        every time.  Resetting instead keeps the graph, the static routing
        table and the delivery planner (whose fault-free caches stay warm —
        plans are pure functions of graph + fault revision) while restoring
        everything a run observes: node liveness and caches, the fault plan,
        message statistics, timestamps, the clock and the private generator.
        A reset network is indistinguishable from a freshly built one to the
        workload driver, which is what keeps shared-network runs replayable.
        """
        self._postings.reset()
        self._faults.clear()  # no revision bump when already fault-free
        self._stats.reset()
        self._clock = EventLoop()
        self._rng = random.Random(self._seed)
        self._timestamps = itertools.count(1)
        self._tap = None

    def reset_to_cold(self) -> None:
        """:meth:`reset_for_reuse`, plus dropping the planner's warm caches.

        Plan-cache hit/miss counters are part of every cell's reported
        results, so a network recycled *across* matrix runs (the warm
        worker pool) must be counter-indistinguishable from a freshly
        built one: same graph and static routing table (the expensive
        part, which records no plan events fault-free), but completely
        cold memoized plans, trees and surviving tables.
        """
        self.reset_for_reuse()
        self._planner.clear_caches()

    # -- message tap ----------------------------------------------------------

    def attach_tap(self, tap) -> None:
        """Install a message tap (one at a time).

        The tap sees every delivery fan-out (``on_delivery``), reply burst
        (``on_replies``) and payload message (``on_payload``) as pure
        observations — see :class:`repro.simtime.binding.TimedOverlay`.
        """
        if self._tap is not None:
            raise RuntimeError("a message tap is already attached")
        self._tap = tap

    def detach_tap(self) -> None:
        """Remove the message tap (idempotent)."""
        self._tap = None

    # -- message delivery -----------------------------------------------------

    def deliver(
        self,
        source: Hashable,
        destinations: Iterable[Hashable],
        category: str,
        mode: Optional[str] = None,
    ) -> DeliveryOutcome:
        """Deliver a message from ``source`` to each destination.

        Returns which destinations were reached and charges the hops to
        ``category`` in :attr:`stats`.  Crashed destinations and destinations
        cut off by failed links count as unreachable.
        """
        # Liveness is the fault plan's ``crashed_nodes`` (see node_is_up),
        # tested in place: this runs once per message.
        if source not in self._nodes:
            raise UnknownNodeError(source)
        if source in self._faults.crashed_nodes:
            raise NodeDownError(source)
        mode = mode or self._delivery_mode
        if mode not in DELIVERY_MODES:  # pragma: no cover - guarded in ctor
            raise ValueError(f"unknown delivery mode {mode!r}")
        if isinstance(destinations, frozenset):
            # The hot path: the match-maker's memoized P/Q sets arrive as
            # frozensets, so the planner key needs no copying at all.
            targets = destinations
            message_count = len(destinations)
            outcome = self._planner.plan(source, targets, mode)
        else:
            destinations = list(destinations)
            message_count = len(destinations)
            targets = frozenset(destinations)
            if len(targets) == len(destinations):
                outcome = self._planner.plan(source, targets, mode)
            else:
                # Duplicate destinations: charge each occurrence, exactly as
                # per-message delivery would (plans dedup, so bypass them).
                outcome = self._deliver_with_duplicates(source, destinations, mode)

        if message_count == len(targets):
            delivered = len(outcome.reached)
        else:
            # Duplicate destinations: every occurrence counts separately, so
            # the conservation law sent == delivered + dropped still holds.
            delivered = sum(1 for d in destinations if d in outcome.reached)
        self._stats.record(category, outcome.hops, message_count, delivered)
        self._stats.record_load(outcome.reached)
        if self._tap is not None:
            self._tap.on_delivery(source, outcome.reached, category, mode)
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "deliver",
                category=category,
                mode=mode,
                hops=outcome.hops,
                reached=delivered,
                dropped=message_count - delivered,
            )
        return outcome

    def _deliver_with_duplicates(
        self, source: Hashable, destinations: List[Hashable], mode: str
    ) -> DeliveryOutcome:
        """Per-occurrence delivery for destination lists with duplicates.

        ``multicast`` has set semantics anyway; ``ideal`` and ``unicast``
        charge every occurrence its own hops.  Routing still comes from the
        planner's shared tables — nothing is rebuilt per message.
        """
        if mode == "multicast":
            return self._planner.plan(source, frozenset(destinations), mode)
        for destination in destinations:
            if destination not in self._nodes:
                raise UnknownNodeError(destination)
        distances = (
            self._planner.routing_table().distance_map(source)
            if mode == "unicast"
            else None
        )
        reached = set()
        unreachable = set()
        hops = 0
        for destination in destinations:
            if destination == source:
                reached.add(destination)
                continue
            if mode == "ideal":
                if destination not in self._faults.crashed_nodes:
                    reached.add(destination)
                    hops += 1
                else:
                    unreachable.add(destination)
            else:
                distance = distances.get(destination)
                if distance is None:
                    unreachable.add(destination)
                else:
                    hops += distance
                    reached.add(destination)
        return DeliveryOutcome(frozenset(reached), hops, frozenset(unreachable))

    def broadcast(self, source: Hashable, category: str) -> DeliveryOutcome:
        """Flood the whole (surviving) network from ``source``."""
        if not self.node_is_up(source):
            raise NodeDownError(source)
        faults = self._faults if self._faults.fault_count else None
        outcome = flood(self._graph, source, faults)
        self._stats.record(category, outcome.hops, message_count=1)
        return outcome

    # -- match-making primitives ----------------------------------------------

    def post(
        self,
        server_node: Hashable,
        port: Port,
        targets: Iterable[Hashable],
        server_id: str = "",
        mode: Optional[str] = None,
        address: Optional[Address] = None,
    ) -> DeliveryOutcome:
        """Post ``(port, address-of-server_node)`` at each target node.

        Only targets actually reached store the record; this is what makes a
        subsequent query fail if, e.g., all rendezvous nodes crashed.
        """
        record = PostRecord(
            port=port,
            address=address if address is not None else Address(server_node),
            timestamp=self.next_timestamp(),
            server_id=server_id or f"server@{server_node}",
        )
        outcome = self.deliver(server_node, targets, POST, mode=mode)
        self._require_up(outcome.reached)
        self._postings.post(record, outcome.reached)
        return outcome

    def unpost(
        self,
        server_node: Hashable,
        port: Port,
        targets: Iterable[Hashable],
        server_id: str = "",
        mode: Optional[str] = None,
    ) -> DeliveryOutcome:
        """Withdraw a posting from each reachable target node."""
        outcome = self.deliver(server_node, targets, POST, mode=mode)
        self._require_up(outcome.reached)
        self._postings.forget_server(
            port, server_id or f"server@{server_node}", outcome.reached
        )
        return outcome

    def _require_up(self, reached: FrozenSet[Hashable]) -> None:
        """A delivery plan never reaches a crashed node; a node that is
        asked to store or answer while down raises as it always has."""
        crashed = self._faults.crashed_nodes
        if not crashed.isdisjoint(reached):
            raise NodeDownError(next(n for n in reached if n in crashed))

    def query(
        self,
        client_node: Hashable,
        port: Port,
        targets: Iterable[Hashable],
        mode: Optional[str] = None,
        collect_all: bool = False,
    ) -> QueryOutcome:
        """Query each target node for ``port`` and collect replies.

        The answering nodes are ``holders(port) ∩ reached`` — the rendezvous
        set itself — taken in ``reached``'s own order.  Reply hops are
        charged separately (category ``reply``): each node that has a
        matching record sends one reply routed back to the client (one hop
        in ``ideal`` mode, shortest-path distance otherwise, read from the
        client's own routing row: channels are undirected).
        """
        outcome = self.deliver(client_node, targets, QUERY, mode=mode)
        reached = outcome.reached
        crashed = self._faults.crashed_nodes
        if crashed and not crashed.isdisjoint(reached):  # never, by the plan
            self._require_up(reached)
        records: List[PostRecord] = []
        responders: List[Hashable] = []
        reply_hops = 0
        lost_replies = 0
        mode = mode or self._delivery_mode
        ideal = mode == "ideal"
        # Asked once per routed query even when nobody answers: under
        # faults the question is a route event, and route events are
        # reported.
        reply_table = None if ideal else self._planner.routing_table()
        distances = None
        holders = self._postings.holders(port)
        if holders:
            for target in reached:
                if target not in holders:
                    continue
                if target != client_node:
                    if ideal:
                        reply_hops += 1
                    else:
                        if distances is None:
                            distances = reply_table.distance_map(client_node)
                        hops = distances.get(target)
                        if hops is None:
                            # The reply cannot come back; this responder
                            # contributes nothing (its records stay out —
                            # other responders may hold equal records, which
                            # must survive).  The reply was still sent, so it
                            # counts as sent-and-dropped.
                            lost_replies += 1
                            continue
                        reply_hops += hops
                held = holders[target].values()
                if collect_all:
                    records.extend(sorted(held, key=freshness_key, reverse=True))
                else:
                    records.append(freshest(held))
                responders.append(target)
        self._stats.record(
            REPLY, reply_hops, len(responders) + lost_replies, len(responders)
        )
        if self._tap is not None:
            self._tap.on_replies(responders, client_node, mode)
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "route",
                category=REPLY,
                hops=reply_hops,
                responders=len(responders),
                lost=lost_replies,
            )
        # Positional, in QueryOutcome field order; ``reached`` is a frozenset.
        return QueryOutcome(
            tuple(records), frozenset(responders), outcome.reached,
            outcome.hops, reply_hops,
        )

    def send_payload(self, source: Hashable, destination: Hashable) -> int:
        """Send an application message (request/reply) point-to-point.

        Returns the hop count, charged to the ``payload`` category.  Raises
        :class:`NoRouteError` via the routing table when the destination is
        unreachable.
        """
        nodes = self._nodes
        crashed = self._faults.crashed_nodes
        if source not in nodes:
            raise UnknownNodeError(source)
        if source in crashed:
            raise NodeDownError(source)
        if destination not in nodes:
            raise UnknownNodeError(destination)
        if destination in crashed:
            raise NodeDownError(destination)
        # Asked once per payload even when it goes nowhere: under faults
        # the question is a route event, and route events are reported.
        table = self._planner.routing_table()
        hops = 0 if source == destination else table.distance(source, destination)
        self._stats.record(PAYLOAD, hops, 1, 1)
        if self._tap is not None:
            self._tap.on_payload(source, destination)
        return hops

    def cache_sizes(self) -> Dict[Hashable, int]:
        """Current cache size of every node."""
        return {node_id: self._postings.size(node_id) for node_id in self._nodes}

    def max_cache_size(self) -> int:
        """The largest cache in the network (the paper's cache-size metric)."""
        sizes = self.cache_sizes()
        return max(sizes.values(), default=0)

    def reset_stats(self) -> None:
        """Zero the message-pass counters."""
        self._stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={self.size}, mode={self._delivery_mode!r}, "
            f"hops={self._stats.total_hops})"
        )
