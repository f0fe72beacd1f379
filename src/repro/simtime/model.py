"""Declarative time models: what a message costs on links and at nodes.

A :class:`TimeModelSpec` prices the substrate in *virtual seconds* — the
same unit the arrival processes schedule requests in, so an open-loop
Poisson stream at 2000 req/s genuinely overlaps with half-millisecond
links; the timed overlay turns each figure into integer nanosecond ticks
once, when it compiles a route.  It is plain frozen data, exactly like
:class:`~repro.workload.spec.ArrivalSpec` and friends: it rides on a
:class:`~repro.workload.spec.ScenarioSpec`, serializes into trace headers
and matrix grids, crosses the exec-engine process boundary by pickle, and
participates in every cache key.  Its JSON is the field layout
(:mod:`repro.codec`; override pairs are two-item lists): every field
defaults, but a misspelled key or a mistyped ``"capacity": 2.5`` is a
``ValueError`` naming its path, never a latency priced with a default.

Links are identified by the :func:`link_key` of their endpoint reprs, so
overrides are JSON-safe no matter what a topology uses for node ids (ints,
grid tuples, bit strings).  In ``ideal`` delivery mode a message travels a
single *virtual* link ``source -> destination``; overrides keyed on that
pair price it, which is how a "congested link" scenario works on a
complete topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Tuple

from ..codec import require_finite


def link_key(u: Hashable, v: Hashable) -> str:
    """The canonical, JSON-safe identity of the (undirected) link
    ``{u, v}``: endpoint reprs sorted, joined with ``<->``."""
    a, b = sorted((repr(u), repr(v)))
    return f"{a}<->{b}"


@dataclass(frozen=True)
class LinkTiming:
    """How one link (or the default link) prices a message.

    ``latency``
        base transfer time in virtual seconds per message;
    ``jitter``
        maximum additional uniform delay, drawn per message from the run's
        seeded ``{seed}/simtime`` stream (0 = deterministic links);
    ``capacity``
        messages the link carries simultaneously; message ``capacity + 1``
        queues until a slot frees (SNIPPETS.md's link-as-capacity-1-resource
        idiom, generalized).
    """

    latency: float = 0.001
    jitter: float = 0.0
    capacity: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.latency <= 0:
            raise ValueError("link latency must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")


@dataclass(frozen=True)
class TimeModelSpec:
    """One complete pricing of a network: links, node service, timeout.

    ``default_link``
        timing for every link without an override;
    ``link_overrides``
        ``(link_key, LinkTiming)`` pairs for specific links (see
        :func:`link_key`) — slow WAN links, a congested backbone;
    ``node_service``
        seconds a node spends handling each arriving message (a single FIFO
        server per node — this is what melts a centralized name server
        under hotspot arrivals);
    ``node_overrides``
        ``(repr(node), seconds)`` pairs for specific nodes;
    ``timeout``
        maximum seconds a message may wait in one queue before it is
        dropped (0 disables drops).
    """

    default_link: LinkTiming = field(default_factory=LinkTiming)
    link_overrides: Tuple[Tuple[str, LinkTiming], ...] = ()
    node_service: float = 0.0
    node_overrides: Tuple[Tuple[str, float], ...] = ()
    timeout: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.node_service < 0:
            raise ValueError("node_service must be non-negative")
        if self.timeout < 0:
            raise ValueError("timeout must be non-negative")
        for key, timing in self.link_overrides:
            if not isinstance(timing, LinkTiming):
                raise TypeError(f"link override {key!r} is not a LinkTiming")
            # A key ``link_key`` never makes would silently price the default.
            ends = key.split("<->")
            if len(ends) != 2:
                raise ValueError(f"link override {key!r} is not a link key")
            if ends[0] > ends[1]:
                raise ValueError(f"link override {key!r} is not canonical: "
                                 f"spell it {'<->'.join(ends[::-1])!r}")
        for key, seconds in self.node_overrides:
            if not 0 <= seconds < math.inf:
                raise ValueError(
                    f"node override {key!r} must be finite and non-negative"
                )
        for kind, overrides in (("link", self.link_overrides),
                                ("node", self.node_overrides)):
            keys = [key for key, _ in overrides]
            for key in keys:
                if keys.count(key) > 1:
                    raise ValueError(f"{kind} override {key!r} is given twice")

    @property
    def label(self) -> str:
        """A compact identity string for matrix-cell names and reports."""
        link = self.default_link
        parts = [f"l{link.latency:g}"]
        if link.jitter:
            parts.append(f"j{link.jitter:g}")
        if link.capacity != 1:
            parts.append(f"c{link.capacity}")
        if self.node_service:
            parts.append(f"s{self.node_service:g}")
        if self.timeout:
            parts.append(f"to{self.timeout:g}")
        if self.link_overrides or self.node_overrides:
            parts.append(f"o{len(self.link_overrides) + len(self.node_overrides)}")
        return "tm(" + ",".join(parts) + ")"

    def link_timing(self, key: str) -> LinkTiming:
        """The timing for the link identified by ``key``."""
        for override_key, timing in self.link_overrides:
            if override_key == key:
                return timing
        return self.default_link

    def service_time(self, node_repr: str) -> float:
        """Per-message service seconds at the node with this repr."""
        for override_key, seconds in self.node_overrides:
            if override_key == node_repr:
                return seconds
        return self.node_service
