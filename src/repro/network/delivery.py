"""Fault-aware delivery planning.

The paper's whole argument is about counting message passes, so the
simulator must not spend :math:`O(n^2)` *Python* work to account for a
single message.  Historically it did exactly that under faults: every
``unicast`` call rebuilt a :class:`~repro.network.routing.RoutingTable`
over the surviving subgraph, and every ``multicast`` re-ran a BFS to get
its spanning tree.  :class:`DeliveryPlanner` centralises all of that
routing work and keys it on the :class:`~repro.network.faults.FaultPlan`
revision counter, so the cost of planning is paid once per *fault
revision*, not once per *message*:

``routing_table()``
    the single shared :class:`RoutingTable` over the surviving subgraph
    (the fault-free table when no faults are active; under faults a mask
    over it, :meth:`~repro.network.routing.RoutingTable.masked`);
``spanning_tree(source)``
    the BFS tree used by multicast, one per ``(source, revision)``: that
    table's row for ``source``;
``plan(source, targets, mode)``
    a fully memoized :class:`~repro.network.broadcast.DeliveryOutcome`
    per ``(source, frozenset(targets), mode, revision)``.  Because the
    match-maker's P/Q sets are themselves memoized frozensets, a
    steady-state workload hits this cache with O(1) dict lookups per
    post/query — no graph traversal at all.

Cache effectiveness is observable: every hit/miss is recorded as a plan
event on the owning network's :class:`~repro.network.stats.MessageStats`
(``plan_hit``/``plan_miss``, ``tree_hit``/``tree_miss``,
``route_hit``/``route_miss``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Tuple

from ..core.exceptions import UnknownNodeError
from .broadcast import DeliveryOutcome, multicast, unicast
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
    """Single source of routing truth for a :class:`~repro.network.Network`.

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
        self._graph = graph
        self._routing = routing
        self._faults = faults
        self._stats = stats
        self._trees: Dict[Hashable, Dict[Hashable, Hashable]] = {}
        self._plans: Dict[
            Tuple[Hashable, FrozenSet[Hashable], str], DeliveryOutcome
        ] = {}
        self.clear_caches()

    # -- revision tracking ---------------------------------------------------

    @property
    def revision(self) -> int:
        """The fault-plan revision the current caches are valid for."""
        return self._revision

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

    # -- full delivery plans -------------------------------------------------

    def plan(
        self,
        source: Hashable,
        targets: FrozenSet[Hashable],
        mode: str,
    ) -> DeliveryOutcome:
        """The delivery outcome for ``source -> targets`` under ``mode``.

        The returned :class:`DeliveryOutcome` is immutable and shared
        between calls; callers must not assume a fresh object.  The
        caller is responsible for having verified that ``source`` is up.
        A target outside the graph is an addressing error in every mode,
        not packet loss: it raises :class:`UnknownNodeError` when the plan
        is first made (a hit was checked when it was a miss).
        """
        if self._faults.revision != self._revision:
            self.clear_caches()
        key = (source, targets, mode)
        cached = self._plans.get(key)
        if cached is not None:
            self._stats.record_plan_event(PLAN_HIT)
            return cached
        self._stats.record_plan_event(PLAN_MISS)
        for destination in targets:
            if destination not in self._graph:
                raise UnknownNodeError(destination)
        if mode == "ideal":
            outcome = self._plan_ideal(source, targets)
        elif mode == "unicast":
            outcome = self._plan_unicast(source, targets)
        elif mode == "multicast":
            outcome = self._plan_multicast(source, targets)
        else:
            raise ValueError(f"unknown delivery mode {mode!r}")
        self._plans[key] = outcome
        return outcome

    def _plan_ideal(
        self, source: Hashable, targets: FrozenSet[Hashable]
    ) -> DeliveryOutcome:
        crashed = self._faults.crashed_nodes
        reached = set()
        unreachable = set()
        hops = 0
        for destination in targets:
            if destination == source:
                reached.add(destination)
            elif destination not in crashed:
                reached.add(destination)
                hops += 1
            else:
                unreachable.add(destination)
        return DeliveryOutcome(frozenset(reached), hops, frozenset(unreachable))

    def _plan_unicast(
        self, source: Hashable, targets: FrozenSet[Hashable]
    ) -> DeliveryOutcome:
        return unicast(
            self._graph,
            self._routing,
            source,
            targets,
            self._faults,
            surviving_table=self.routing_table(),
        )

    def _plan_multicast(
        self, source: Hashable, targets: FrozenSet[Hashable]
    ) -> DeliveryOutcome:
        return multicast(
            self._graph,
            source,
            targets,
            self._faults if self._faults.fault_count else None,
            parent=self.spanning_tree(source),
        )
