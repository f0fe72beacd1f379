"""Fault-aware delivery planning: the one pricer of every fan-out.

The paper prices a match-making message by its delivery mode, and
:class:`DeliveryPlanner` is the only code that does:

``ideal``
    every addressed live node but the source costs one hop (the complete
    network of section 2, whatever the topology underneath);
``unicast``
    one point-to-point message per destination along a shortest surviving
    path: the sum of the source row's distances;
``multicast``
    one copy flows down the source's BFS tree, duplicated at branch
    points: the number of distinct tree edges used — ``m(i,j) = #P(i) +
    #Q(j)`` when the addressed set is a connected subgraph (section 2.3.5).

Every price is read from the planner's revision table: the network's static
:class:`~repro.network.routing.RoutingTable`, or under faults its
:meth:`~repro.network.routing.RoutingTable.masked` view, made once per
:class:`~repro.network.faults.FaultPlan` revision, so the cost of planning
is paid once per *fault revision*, not once per *message*:

``routing_table()``
    that shared table (the static one when no faults are active);
``spanning_tree(source)``
    the BFS tree used by multicast, one per ``(source, revision)``: that
    table's row for ``source``;
``price(source, destinations, mode)``
    the :class:`DeliveryOutcome` of one fan-out, unmemoized: a destination
    listed twice is charged twice;
``plan(source, targets, mode)``
    ``price`` memoized per ``(source, frozenset(targets), mode, revision)``.
    Because the match-maker's P/Q sets are themselves memoized frozensets,
    a steady-state workload hits this cache with O(1) dict lookups per
    post/query — no graph traversal at all.

Cache effectiveness is observable: every hit/miss is recorded as a plan
event on the owning network's :class:`~repro.network.stats.MessageStats`
(``plan_hit``/``plan_miss``, ``tree_hit``/``tree_miss``,
``route_hit``/``route_miss``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Tuple

from ..core.exceptions import UnknownNodeError
from .faults import FaultPlan
from .graph import Graph
from .routing import RoutingTable
from .stats import MessageStats

#: Plan-event keys recorded on :class:`MessageStats`.
PLAN_HIT = "plan_hit"
PLAN_MISS = "plan_miss"
TREE_HIT = "tree_hit"
TREE_MISS = "tree_miss"
ROUTE_HIT = "route_hit"
ROUTE_MISS = "route_miss"

#: Every plan-event kind, paired as (hit, miss) per cache family.
PLAN_EVENT_FAMILIES = {
    "plan": (PLAN_HIT, PLAN_MISS),
    "tree": (TREE_HIT, TREE_MISS),
    "route": (ROUTE_HIT, ROUTE_MISS),
}


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result of delivering a message from one node to a set of targets."""

    reached: FrozenSet[Hashable]
    hops: int
    unreachable: FrozenSet[Hashable]


def plan_hit_rates(events: Dict[str, int]) -> Dict[str, float]:
    """Per-cache-family hit rates from a plan-event counter dict.

    Accepts either :attr:`MessageStats.plan_events` or the ``plan_cache``
    copy of it a workload run reports; families with no traffic report a
    rate of 0.0.
    """
    rates = {}
    for family, (hit, miss) in PLAN_EVENT_FAMILIES.items():
        hits = events.get(hit, 0)
        total = hits + events.get(miss, 0)
        rates[family] = hits / total if total else 0.0
    return rates


class DeliveryPlanner:
    """Single source of routing truth for a :class:`~repro.network.Network`,
    and the only code that prices a fan-out.

    Parameters
    ----------
    graph:
        The full (fault-free) communication graph.  Assumed static.
    routing:
        The network's fault-free routing table (shared, never rebuilt).
    faults:
        The network's fault plan; its ``revision`` counter keys every
        cache in this planner.
    stats:
        Where plan-cache hit/miss events are recorded.
    """

    def __init__(
        self,
        graph: Graph,
        routing: RoutingTable,
        faults: FaultPlan,
        stats: MessageStats,
    ) -> None:
        self._nodes = graph.node_set
        self._routing = routing
        self._faults = faults
        self._stats = stats
        self._trees: Dict[Hashable, Dict[Hashable, Hashable]] = {}
        self._plans: Dict[
            Tuple[Hashable, FrozenSet[Hashable], str], DeliveryOutcome
        ] = {}
        self.clear_caches()

    # -- revision tracking ---------------------------------------------------

    def clear_caches(self) -> None:
        """Forget every memoized plan, tree and surviving table.

        Called whenever the fault plan has moved on: revisions are
        monotonic, so entries keyed under an older revision can never be
        served again — pruning keeps memory bounded by the traffic
        diversity of the *current* fault epoch.  ``reset_for_reuse``
        deliberately keeps these caches warm — plans are pure functions of
        the (static) graph and the fault revision, so same-topology cells
        in one sweep share them.  Hit/miss counters live on
        :class:`MessageStats` and are untouched here.
        """
        faults = self._faults
        self._revision = faults.revision
        # The revision's table (the static one or a cheap mask over it) and
        # whether routing_table() served it yet: a multicast tree is one of
        # its rows, so the first ask, not the first use, is the route miss.
        self._table = self._routing
        if faults.crashed_nodes or faults.failed_links:
            self._table = self._routing.masked(
                faults.crashed_nodes, faults.failed_links
            )
        self._routed = False
        self._trees.clear()
        self._plans.clear()

    # -- shared routing state ------------------------------------------------

    def routing_table(self) -> RoutingTable:
        """The shared routing table over the surviving subgraph.

        This is the table ``unicast`` delivery, reply routing and payload
        routing all share; it is made at most once per fault revision
        — the headline fix over rebuilding one per message.  Route events
        are only recorded under active faults: the fault-free fast path
        serves the network's static table, which is not a cache.
        """
        if self._faults.revision != self._revision:
            self.clear_caches()
        table = self._table
        if table is not self._routing:
            if self._routed:
                self._stats.record_plan_event(ROUTE_HIT)
            else:
                self._routed = True
                self._stats.record_plan_event(ROUTE_MISS)
        return table

    def spanning_tree(self, source: Hashable) -> Dict[Hashable, Hashable]:
        """The BFS parent tree rooted at ``source``: the revision's table
        row for ``source`` (:meth:`RoutingTable.spanning_tree`), shared.

        Empty when ``source`` is not in the surviving subgraph.
        """
        if self._faults.revision != self._revision:
            self.clear_caches()
        tree = self._trees.get(source)
        if tree is None:
            self._stats.record_plan_event(TREE_MISS)
            try:
                tree = self._table.spanning_tree(source)
            except UnknownNodeError:
                tree = {}
            self._trees[source] = tree
        else:
            self._stats.record_plan_event(TREE_HIT)
        return tree

    # -- pricing --------------------------------------------------------------

    def plan(
        self,
        source: Hashable,
        targets: FrozenSet[Hashable],
        mode: str,
    ) -> DeliveryOutcome:
        """:meth:`price` of ``source -> targets`` under ``mode``, memoized.

        The returned :class:`DeliveryOutcome` is immutable and shared
        between calls; callers must not assume a fresh object.  A hit was
        checked when it was a miss.
        """
        if self._faults.revision != self._revision:
            self.clear_caches()
        key = (source, targets, mode)
        cached = self._plans.get(key)
        if cached is not None:
            self._stats.record_plan_event(PLAN_HIT)
            return cached
        self._stats.record_plan_event(PLAN_MISS)
        outcome = self._plans[key] = self.price(source, targets, mode)
        return outcome

    def price(
        self,
        source: Hashable,
        destinations: Iterable[Hashable],
        mode: str,
    ) -> DeliveryOutcome:
        """What delivering ``source -> destinations`` under ``mode`` reaches
        and costs now, every occurrence of a destination charged.

        A node outside the graph — source or destination — is an
        addressing error in every mode, not packet loss: it raises
        :class:`UnknownNodeError`.  The caller is responsible for having
        verified that ``source`` is up; a crashed source reaches nothing.
        """
        # Targets are checked before the tree or table is asked for and the
        # source after, so an error records the plan events it always has.
        nodes = self._nodes
        for destination in destinations:
            if destination not in nodes:
                raise UnknownNodeError(destination)
        if mode == "multicast":
            tree = self.spanning_tree(source)
        elif mode == "unicast":
            table = self.routing_table()
        elif mode != "ideal":
            raise ValueError(f"unknown delivery mode {mode!r}")
        if source not in nodes:
            raise UnknownNodeError(source)
        crashed = self._faults.crashed_nodes
        if source in crashed:
            return DeliveryOutcome(
                frozenset(), 0, frozenset(destinations) - {source}
            )
        reached = set()
        unreachable = set()
        hops = 0
        if mode == "ideal":
            for destination in destinations:
                if destination in crashed:
                    unreachable.add(destination)
                else:
                    reached.add(destination)
                    hops += destination != source
        elif mode == "unicast":
            # The source's one row prices every destination: in it iff
            # routable.
            distances = table.distance_map(source)
            for destination in destinations:
                distance = distances.get(destination)
                if distance is None:
                    unreachable.add(destination)
                else:
                    hops += distance
                    reached.add(destination)
        else:
            # A tree edge is named by its child end; a walk up stops at the
            # first edge already paid for.
            paid = set()
            for destination in destinations:
                if destination not in tree:
                    unreachable.add(destination)
                    continue
                reached.add(destination)
                node = destination
                while node != source and node not in paid:
                    paid.add(node)
                    node = tree[node]
            hops = len(paid)
        return DeliveryOutcome(frozenset(reached), hops, frozenset(unreachable))
