"""Spanning-tree broadcast and multicast cost models.

The paper charges broadcast/multicast the number of tree edges used: when the
addressed set induces a connected subgraph containing the sender and messages
are broadcast "over spanning trees in these subgraphs, then the number of
message passes m(i,j) equals the number of addressed nodes #P(i)+#Q(j)"
(section 2.3.5).  Otherwise there is a routing overhead.  This module computes
both the reached set and the exact hop count for three delivery modes:

``unicast``
    One point-to-point message per destination, each along a shortest path.
``multicast``
    One copy flows down a BFS tree rooted at the sender, duplicated at branch
    points; the cost is the number of distinct tree edges used.
``flood``
    Full network broadcast along a spanning tree of the (surviving) network —
    the paper's Ω(n) conventional broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set

from ..core.exceptions import UnknownNodeError
from .faults import FaultPlan, surviving_graph
from .graph import Graph
from .routing import RoutingTable


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result of delivering a message from one node to a set of targets."""

    reached: FrozenSet[Hashable]
    hops: int
    unreachable: FrozenSet[Hashable]


def _effective_graph(graph: Graph, faults: Optional[FaultPlan]) -> Graph:
    if faults is None or faults.fault_count == 0:
        return graph
    return surviving_graph(graph, faults)


def unicast(
    graph: Graph,
    table: RoutingTable,
    source: Hashable,
    destinations: Iterable[Hashable],
    faults: Optional[FaultPlan] = None,
    surviving_table: Optional[RoutingTable] = None,
) -> DeliveryOutcome:
    """Deliver one message per destination along shortest surviving paths.

    ``surviving_table``, when given, must be a routing table over the
    surviving subgraph of ``faults``; it is used (together with its graph)
    instead of rebuilding both from scratch.
    :meth:`~repro.network.delivery.DeliveryPlanner._plan_unicast` passes
    its shared per-fault-revision table here; callers that omit it pay a
    surviving-graph plus table construction per call.
    """
    if source not in graph:
        raise UnknownNodeError(source)
    if faults is not None and not faults.node_is_up(source):
        targets = frozenset(d for d in destinations if d != source)
        return DeliveryOutcome(frozenset(), 0, targets)
    if faults is None or faults.fault_count == 0:
        live_table = table
    elif surviving_table is not None:
        live_table = surviving_table
    else:
        live_table = RoutingTable(surviving_graph(graph, faults))
    # The source's one row prices every destination: in it iff routable.
    distances = live_table.distance_map(source)
    reached: Set[Hashable] = set()
    unreachable: Set[Hashable] = set()
    hops = 0
    for destination in destinations:
        distance = distances.get(destination)
        if distance is None:
            unreachable.add(destination)
        else:
            hops += distance
            reached.add(destination)
    return DeliveryOutcome(frozenset(reached), hops, frozenset(unreachable))


def multicast(
    graph: Graph,
    source: Hashable,
    destinations: Iterable[Hashable],
    faults: Optional[FaultPlan] = None,
    parent: Optional[Dict[Hashable, Hashable]] = None,
) -> DeliveryOutcome:
    """Deliver along a BFS tree; cost = number of distinct tree edges used.

    ``parent``, when given, must be the BFS spanning tree of ``source`` in
    the surviving subgraph of ``faults`` (empty when the source is cut
    off).  :meth:`~repro.network.delivery.DeliveryPlanner._plan_multicast`
    passes its memoized per-fault-revision tree here; callers that omit it
    pay a surviving-graph build plus a BFS per call.
    """
    if source not in graph:
        raise UnknownNodeError(source)
    targets = {d for d in destinations}
    if faults is not None and not faults.node_is_up(source):
        return DeliveryOutcome(frozenset(), 0, frozenset(targets - {source}))
    if parent is None:
        effective = _effective_graph(graph, faults)
        parent = effective.spanning_tree(source) if source in effective else {}
    if source not in parent:
        return DeliveryOutcome(frozenset(), 0, frozenset(targets - {source}))
    reached: Set[Hashable] = set()
    unreachable: Set[Hashable] = set()
    edges: Set[FrozenSet[Hashable]] = set()
    for destination in targets:
        if destination == source:
            reached.add(destination)
            continue
        if destination not in parent:
            unreachable.add(destination)
            continue
        node = destination
        while node != source:
            edges.add(frozenset((node, parent[node])))
            node = parent[node]
        reached.add(destination)
    return DeliveryOutcome(frozenset(reached), len(edges), frozenset(unreachable))


def flood(
    graph: Graph,
    source: Hashable,
    faults: Optional[FaultPlan] = None,
) -> DeliveryOutcome:
    """Broadcast to every reachable node along a spanning tree.

    Cost is the number of spanning-tree edges, i.e. ``(#reachable nodes) - 1``
    — the conventional Ω(n) broadcast of section 1.4.
    """
    if source not in graph:
        raise UnknownNodeError(source)
    effective = _effective_graph(graph, faults)
    all_nodes = set(graph.nodes)
    if faults is not None and not faults.node_is_up(source):
        return DeliveryOutcome(frozenset(), 0, frozenset(all_nodes - {source}))
    if source not in effective:
        return DeliveryOutcome(frozenset(), 0, frozenset(all_nodes - {source}))
    component = effective.connected_component(source)
    unreachable = frozenset(all_nodes - set(component))
    return DeliveryOutcome(frozenset(component), max(len(component) - 1, 0), unreachable)
