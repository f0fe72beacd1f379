"""Fault injection: node crashes, link failures and surviving subnetworks.

Section 2.4 of the paper discusses robustness: a distributed name server
should keep matching surviving clients with surviving servers "no matter how
many node crashes occur, as long as a surviving network remains".  The
:class:`FaultPlan` describes which nodes/links fail; the delivery planner
masks its static routing table with it, and :func:`surviving_graph` copies
the surviving subnetwork for analysis code and as the mask's reference.

A static fault *set* only captures one instant.  :class:`FaultTimeline`
extends the model to time: an ordered program of :class:`FaultEvent`\\ s
(crash/recover waves, link flaps, region partitions and healing, correlated
failures) that a consumer advances against a live network, moving the
:class:`FaultPlan` — and therefore the delivery planner's revision — mid-run.
The builder functions at the bottom of this module generate the standard
regimes from a graph and a seeded generator.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .graph import Graph


@dataclass
class FaultPlan:
    """A set of crashed nodes and failed links.

    ``revision`` increments on every mutation, so consumers (e.g. the
    simulator's surviving-routing cache) can cheaply detect change.
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

    def node_is_up(self, node: Hashable) -> bool:
        """Whether ``node`` is up under this plan."""
        return node not in self.crashed_nodes

    def link_is_up(self, u: Hashable, v: Hashable) -> bool:
        """Whether the link ``{u, v}`` is usable under this plan."""
        return (
            frozenset((u, v)) not in self.failed_links
            and self.node_is_up(u)
            and self.node_is_up(v)
        )

    @property
    def fault_count(self) -> int:
        """Total number of faults (crashed nodes plus failed links)."""
        return len(self.crashed_nodes) + len(self.failed_links)

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


def surviving_graph(graph: Graph, plan: FaultPlan) -> Graph:
    """The subnetwork that survives ``plan``: up nodes and up links only."""
    survivors = [node for node in graph.nodes if plan.node_is_up(node)]
    surviving = Graph(nodes=survivors)
    for u, v in graph.edges:
        if plan.link_is_up(u, v):
            surviving.add_edge(u, v)
    return surviving


def random_fault_plan(
    graph: Graph,
    node_failures: int,
    rng: random.Random,
    protected: Iterable[Hashable] = (),
    rendezvous_size: Optional[int] = None,
    strict: bool = False,
    at_time: Optional[float] = None,
):
    """Crash ``node_failures`` uniformly random nodes, never the protected
    ones.

    Used by robustness experiments: crash ``f`` random nodes (excluding the
    client and server hosts) and check whether the match still succeeds.

    When ``rendezvous_size`` is given, the request is checked against the
    section-2.4 guarantee: a rendezvous of size ``s`` only tolerates
    ``s - 1`` crashes (:func:`max_tolerated_faults`).  Asking for more is a
    mistake in the experiment setup — with ``strict=True`` it raises
    :class:`ValueError`; by default the count is clamped to the tolerated
    maximum with a :class:`UserWarning`, so a sweep keeps running but the
    over-ask is visible.

    By default the crashes are instantaneous state — a :class:`FaultPlan`.
    Pass ``at_time`` to get the same crash *set* as a scheduled
    :class:`FaultTimeline` instead (every victim crashes at that virtual
    time, no recoveries), ready to merge into a timed run's fault program.
    The victims come from one ``rng.sample`` draw either way, so the same
    seed fells the same nodes in both shapes.
    """
    # The rendezvous clamp runs first: a non-strict over-ask the clamp can
    # satisfy must keep the sweep running even when the raw count exceeds
    # the unprotected population.
    if rendezvous_size is not None:
        tolerated = max_tolerated_faults(rendezvous_size)
        if node_failures > tolerated:
            message = (
                f"{node_failures} crashes exceed the {tolerated} tolerated by "
                f"a rendezvous of size {rendezvous_size}"
            )
            if strict:
                raise ValueError(message)
            warnings.warn(f"{message}; clamping to {tolerated}", UserWarning,
                          stacklevel=2)
            node_failures = tolerated
    protected_set = set(protected)
    candidates = [node for node in graph.nodes if node not in protected_set]
    if node_failures > len(candidates):
        raise ValueError(
            f"cannot crash {node_failures} nodes; only {len(candidates)} "
            f"unprotected nodes exist"
        )
    struck = rng.sample(candidates, node_failures)
    if at_time is not None:
        return FaultTimeline(
            FaultEvent(at_time, CRASH_NODE, (node,)) for node in struck
        )
    plan = FaultPlan()
    for node in struck:
        plan.crash_node(node)
    return plan


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

    @property
    def events(self) -> List[FaultEvent]:
        """The scheduled events, in execution order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def merged(self, other: "FaultTimeline") -> "FaultTimeline":
        """A new timeline interleaving this one with ``other`` by time."""
        return FaultTimeline(self._events + other._events)

    def shifted(self, offset: float) -> "FaultTimeline":
        """A copy with every event moved ``offset`` seconds later.

        Lets a canned fault program (e.g. a :func:`random_fault_plan`
        rendered with ``at_time``) be replayed at different points of a
        run's virtual clock without regenerating its random choices.
        """
        return FaultTimeline(
            FaultEvent(event.time + offset, event.kind, event.subject)
            for event in self._events
        )

    def event_counts(self) -> Dict[str, int]:
        """How many events of each kind the timeline holds."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def horizon(self) -> float:
        """The time of the last scheduled event (0.0 when empty)."""
        return self._events[-1].time if self._events else 0.0

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


def region_partition(
    graph: Graph,
    rng: random.Random,
    at: float,
    heal_at: float,
    region_size: int,
    seed_node: Optional[Hashable] = None,
) -> FaultTimeline:
    """Partition a BFS region of ``region_size`` nodes off the network.

    Every link crossing the region boundary goes down at ``at`` and comes
    back at ``heal_at`` — nodes stay up throughout, so the region keeps
    serving internally (a classic datacenter partition, not a crash).
    """
    if region_size < 1:
        raise ValueError("region_size must be at least 1")
    if heal_at <= at:
        raise ValueError("heal_at must be after at")
    nodes = sorted(graph.nodes, key=repr)
    root = seed_node if seed_node is not None else nodes[rng.randrange(len(nodes))]
    region = set(graph.bfs_order(root)[:region_size])
    events: List[FaultEvent] = []
    for u, v in sorted(graph.edges, key=repr):
        if (u in region) != (v in region):
            events.append(FaultEvent(at, LINK_DOWN, (u, v)))
            events.append(FaultEvent(heal_at, LINK_UP, (u, v)))
    return FaultTimeline(events)


def correlated_failures(
    graph: Graph,
    rng: random.Random,
    shots: int,
    start: float,
    period: float,
    downtime: float,
    blast_radius: int = 3,
    protected: Iterable[Hashable] = (),
) -> FaultTimeline:
    """``shots`` correlated failures: an epicenter and up to
    ``blast_radius - 1`` of its neighbours crash together (one rack, one
    power feed), recovering together ``downtime`` later.  Like
    :func:`crash_recover_waves`, nodes still down from an earlier shot are
    not re-struck.
    """
    if shots < 1 or blast_radius < 1:
        raise ValueError("shots and blast_radius must be at least 1")
    protected_set = set(protected)
    candidates = _eligible_nodes(graph, protected_set)
    down_until: Dict[Hashable, float] = {}
    events: List[FaultEvent] = []
    for shot in range(shots):
        at = start + shot * period
        available = [n for n in candidates if down_until.get(n, 0.0) <= at]
        if not available:
            continue
        epicenter = available[rng.randrange(len(available))]
        blast = [epicenter]
        neighbours = sorted(
            (
                n for n in graph.neighbours(epicenter)
                if n not in protected_set and down_until.get(n, 0.0) <= at
            ),
            key=repr,
        )
        blast.extend(rng.sample(neighbours, min(blast_radius - 1, len(neighbours))))
        for node in blast:
            events.append(FaultEvent(at, CRASH_NODE, (node,)))
            events.append(FaultEvent(at + downtime, RECOVER_NODE, (node,)))
            down_until[node] = at + downtime
    return FaultTimeline(events)


def max_tolerated_faults(rendezvous_size: int) -> int:
    """How many arbitrary node crashes a rendezvous of the given size
    tolerates.

    Section 2.4: choosing ``#(P(i) ∩ Q(j)) ≥ f + 1`` tolerates ``f`` faults,
    so a rendezvous set of size ``s`` tolerates ``s - 1`` crashes of
    rendezvous nodes.
    """
    if rendezvous_size < 0:
        raise ValueError("rendezvous_size must be non-negative")
    return max(rendezvous_size - 1, 0)
