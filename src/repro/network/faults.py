"""Fault injection: node crashes and link failures.

Section 2.4 of the paper discusses robustness: a distributed name server
should keep matching surviving clients with surviving servers "no matter how
many node crashes occur, as long as a surviving network remains".  The
:class:`FaultPlan` describes which nodes/links fail; the delivery planner
masks its static routing table with it
(:meth:`~repro.network.routing.RoutingTable.masked`), so no surviving
subnetwork is ever copied.

A static fault *set* only captures one instant.  :class:`FaultTimeline`
extends the model to time: an ordered program of :class:`FaultEvent`\\ s
(crash/recover waves, link flaps) that a consumer advances against a live
network, moving the :class:`FaultPlan` — and therefore the delivery
planner's revision — mid-run.
The builder functions at the bottom of this module generate the standard
regimes from a graph and a seeded generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
)

from .graph import Graph


@dataclass
class FaultPlan:
    """A set of crashed nodes and failed links.

    ``revision`` increments on every mutation, so consumers (the delivery
    planner's revision table and caches) can cheaply detect change.
    """

    crashed_nodes: Set[Hashable] = field(default_factory=set)
    failed_links: Set[FrozenSet] = field(default_factory=set)
    revision: int = 0

    def crash_node(self, node: Hashable) -> None:
        """Mark ``node`` as crashed."""
        self.crashed_nodes.add(node)
        self.revision += 1

    def recover_node(self, node: Hashable) -> None:
        """Mark ``node`` as recovered."""
        self.crashed_nodes.discard(node)
        self.revision += 1

    def fail_link(self, u: Hashable, v: Hashable) -> None:
        """Mark the link ``{u, v}`` as failed."""
        self.failed_links.add(frozenset((u, v)))
        self.revision += 1

    def restore_link(self, u: Hashable, v: Hashable) -> None:
        """Mark the link ``{u, v}`` as restored."""
        self.failed_links.discard(frozenset((u, v)))
        self.revision += 1

    def clear(self) -> None:
        """Remove all faults.

        Clearing an already-empty plan is a no-op (no revision bump), so
        consumers keyed on the revision — the delivery planner's caches —
        survive a defensive clear between fault-free runs.
        """
        if not self.crashed_nodes and not self.failed_links:
            return
        self.crashed_nodes.clear()
        self.failed_links.clear()
        self.revision += 1


# ---------------------------------------------------------------------------
# Fault timelines: scheduled fault programs
# ---------------------------------------------------------------------------

#: Fault-event kinds a timeline may contain.
CRASH_NODE = "crash_node"
RECOVER_NODE = "recover_node"
LINK_DOWN = "link_down"
LINK_UP = "link_up"

FAULT_EVENT_KINDS = (CRASH_NODE, RECOVER_NODE, LINK_DOWN, LINK_UP)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    ``subject`` is ``(node,)`` for node events and ``(u, v)`` for link
    events.
    """

    time: float
    kind: str
    subject: Tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if self.kind not in FAULT_EVENT_KINDS:
            raise ValueError(
                f"unknown fault event kind {self.kind!r}; "
                f"expected one of {FAULT_EVENT_KINDS}"
            )
        expected = 1 if self.kind in (CRASH_NODE, RECOVER_NODE) else 2
        if len(self.subject) != expected:
            raise ValueError(
                f"{self.kind} events take {expected} subject element(s), "
                f"got {self.subject!r}"
            )
        if self.time < 0:
            raise ValueError("event time must be non-negative")


class FaultTimeline:
    """A time-ordered program of :class:`FaultEvent`\\ s.

    Consumers (the workload driver, tests) walk the events in order and
    apply each to a network; the network's :class:`FaultPlan` revision then
    advances exactly once per event, which is what exercises revision-keyed
    caches under realistic churn.  Sorting is stable: events scheduled for
    the same instant run in the order they were generated.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(events, key=lambda e: e.time)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultTimeline(events={len(self._events)})"


def _eligible_nodes(
    graph: Graph, protected: Iterable[Hashable]
) -> List[Hashable]:
    protected_set = set(protected)
    nodes = [node for node in graph.nodes if node not in protected_set]
    if not nodes:
        raise ValueError("no unprotected nodes to fail")
    return sorted(nodes, key=repr)


def crash_recover_waves(
    graph: Graph,
    rng: random.Random,
    waves: int,
    wave_size: int,
    start: float,
    period: float,
    downtime: float,
    protected: Iterable[Hashable] = (),
) -> FaultTimeline:
    """``waves`` crash waves, each felling ``wave_size`` random nodes.

    Wave ``k`` strikes at ``start + k * period``; every struck node recovers
    ``downtime`` later.  Protected nodes (client hosts, say) never crash,
    and when ``downtime > period`` nodes still down from an earlier wave are
    not re-struck — re-crashing them would pair with the earlier recovery
    and silently shorten their declared outage.
    """
    if waves < 1 or wave_size < 1:
        raise ValueError("waves and wave_size must be at least 1")
    candidates = _eligible_nodes(graph, protected)
    down_until: Dict[Hashable, float] = {}
    events: List[FaultEvent] = []
    for wave in range(waves):
        at = start + wave * period
        available = [n for n in candidates if down_until.get(n, 0.0) <= at]
        struck = rng.sample(available, min(wave_size, len(available)))
        for node in struck:
            events.append(FaultEvent(at, CRASH_NODE, (node,)))
            events.append(FaultEvent(at + downtime, RECOVER_NODE, (node,)))
            down_until[node] = at + downtime
    return FaultTimeline(events)


def link_flaps(
    graph: Graph,
    rng: random.Random,
    flaps: int,
    start: float,
    period: float,
    downtime: float,
) -> FaultTimeline:
    """``flaps`` link flaps: a random link fails, then heals ``downtime``
    later.

    Flap ``k`` begins at ``start + k * period``.  The same link may flap
    more than once — exactly the fail -> heal -> fail-again sequence that
    revision-keyed caches must survive.
    """
    if flaps < 1:
        raise ValueError("flaps must be at least 1")
    edges = sorted(graph.edges, key=repr)
    if not edges:
        raise ValueError("graph has no links to flap")
    events: List[FaultEvent] = []
    for flap in range(flaps):
        at = start + flap * period
        u, v = edges[rng.randrange(len(edges))]
        events.append(FaultEvent(at, LINK_DOWN, (u, v)))
        events.append(FaultEvent(at + downtime, LINK_UP, (u, v)))
    return FaultTimeline(events)
