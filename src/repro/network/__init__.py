"""Store-and-forward network simulation substrate.

This subpackage implements everything the paper assumes of the underlying
network: an undirected communication graph, per-node routing tables, the
nodes' posting caches (one store, keyed by node and by port), one delivery
planner that prices every fan-out (ideal, unicast and spanning-tree
multicast), message-pass (hop) accounting, and fault injection.
"""

from .cache import PostingStore
from .delivery import DeliveryOutcome, DeliveryPlanner, plan_hit_rates
from .faults import (
    FaultEvent,
    FaultPlan,
    FaultTimeline,
    crash_recover_waves,
    link_flaps,
)
from .graph import Graph, complete_graph
from .routing import RoutingTable
from .simulator import Network, QueryOutcome
from .stats import CONTROL, PAYLOAD, POST, QUERY, REPLY, MessageStats

__all__ = [
    "CONTROL",
    "DeliveryOutcome",
    "DeliveryPlanner",
    "FaultEvent",
    "FaultPlan",
    "FaultTimeline",
    "Graph",
    "MessageStats",
    "Network",
    "PAYLOAD",
    "POST",
    "PostingStore",
    "QUERY",
    "QueryOutcome",
    "REPLY",
    "RoutingTable",
    "complete_graph",
    "crash_recover_waves",
    "link_flaps",
    "plan_hit_rates",
]
