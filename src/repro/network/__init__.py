"""Store-and-forward network simulation substrate.

This subpackage implements everything the paper assumes of the underlying
network: an undirected communication graph, per-node routing tables, the
nodes' posting caches (one store, keyed by node and by port), spanning-tree
broadcast, message-pass (hop) accounting, a logical clock, and fault
injection.
"""

from .broadcast import DeliveryOutcome, flood, multicast, unicast
from .cache import PostingStore
from .delivery import DeliveryPlanner, plan_hit_rates
from .events import EventLoop
from .faults import (
    FaultEvent,
    FaultPlan,
    FaultTimeline,
    correlated_failures,
    crash_recover_waves,
    link_flaps,
    max_tolerated_faults,
    random_fault_plan,
    region_partition,
    surviving_graph,
)
from .graph import Graph, complete_graph
from .relay import (
    LoadReport,
    RelayRoute,
    compare_direct_vs_relay,
    direct_route,
    measure_load,
    two_phase_route,
)
from .routing import RoutingTable, multicast_tree_cost, route_cost
from .simulator import Network, QueryOutcome
from .stats import CONTROL, PAYLOAD, POST, QUERY, REPLY, MessageStats

__all__ = [
    "CONTROL",
    "DeliveryOutcome",
    "DeliveryPlanner",
    "EventLoop",
    "FaultEvent",
    "FaultPlan",
    "FaultTimeline",
    "Graph",
    "LoadReport",
    "MessageStats",
    "Network",
    "PAYLOAD",
    "POST",
    "PostingStore",
    "QUERY",
    "QueryOutcome",
    "REPLY",
    "RelayRoute",
    "RoutingTable",
    "compare_direct_vs_relay",
    "complete_graph",
    "correlated_failures",
    "crash_recover_waves",
    "direct_route",
    "flood",
    "link_flaps",
    "measure_load",
    "max_tolerated_faults",
    "multicast",
    "multicast_tree_cost",
    "plan_hit_rates",
    "random_fault_plan",
    "region_partition",
    "route_cost",
    "surviving_graph",
    "two_phase_route",
    "unicast",
]
