"""Declarative workload scenario specifications.

A :class:`ScenarioSpec` describes one traffic experiment completely — the
topology, the match-making strategy, the process population, the arrival
process, the popularity model and the churn model — as plain data.  Specs
round-trip through JSON (:mod:`repro.codec`: the field layout, exact types,
an int stored as a float in a float field, bad keys named by path) so a
recorded trace can embed the scenario it was captured under and a benchmark
can persist exactly what it ran.

A spec names its parts as strings (``"manhattan:8"`` + ``"checkerboard"``),
so scenarios can be written without importing half the package.  Each set
of names is the keys of one dict, which both validates a name and builds
what it names:

* topology families — :data:`TOPOLOGIES`, read by :func:`build_topology`;
* strategies — :data:`STRATEGIES`, read by :func:`build_strategy`;
* fault-regime kinds — :data:`FAULT_REGIMES`, read by
  :func:`build_fault_timeline`;
* arrival, popularity and churn kinds — ``ARRIVAL_PROCESSES``,
  ``POPULARITY_MODELS`` and ``CHURN_MODELS`` in the modules that build
  them (:mod:`~repro.workload.arrivals`, :mod:`~repro.workload.popularity`,
  :mod:`~repro.workload.churn`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..codec import require_finite
from ..core.exceptions import StrategyError
from ..core.strategy import MatchMakingStrategy
from ..network.faults import (
    FaultTimeline,
    correlated_failures,
    crash_recover_waves,
    link_flaps,
    region_partition,
)
from ..network.graph import Graph
from ..simtime.model import TimeModelSpec
from ..strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    CubeConnectedCyclesStrategy,
    FullStrategy,
    HashLocateStrategy,
    HierarchicalGatewayStrategy,
    HypercubeStrategy,
    ManhattanStrategy,
    ProjectivePlaneStrategy,
    SubgraphDecompositionStrategy,
    SweepStrategy,
    TreePathStrategy,
)
from ..topologies import (
    CompleteTopology,
    CubeConnectedCyclesTopology,
    HierarchicalTopology,
    HypercubeTopology,
    ManhattanTopology,
    ProjectivePlaneTopology,
    RingTopology,
    StarTopology,
    Topology,
    TreeTopology,
    decompose,
)
from .arrivals import ARRIVAL_PROCESSES
from .churn import CHURN_MODELS
from .popularity import POPULARITY_MODELS


@dataclass(frozen=True)
class ArrivalSpec:
    """How request operations arrive over simulated time.

    ``closed``
        a closed loop of clients: each client issues its next request as soon
        as the previous one completed, after ``think_time`` seconds;
    ``poisson``
        an open-loop Poisson stream at ``rate`` requests/second, each from a
        uniformly random client;
    ``burst``
        bursts of ``burst_size`` back-to-back requests separated by
        ``burst_gap`` idle seconds.
    """

    kind: str = "closed"
    rate: float = 200.0
    think_time: float = 0.0
    burst_size: int = 50
    burst_gap: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; "
                f"expected one of {tuple(ARRIVAL_PROCESSES)}"
            )
        if self.rate <= 0:
            raise ValueError("arrival rate must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if self.think_time < 0 or self.burst_gap < 0:
            raise ValueError("times must be non-negative")


@dataclass(frozen=True)
class PopularitySpec:
    """How clients choose which service (port) each request targets.

    ``uniform``
        every port equally likely;
    ``zipf``
        port popularity follows a Zipf law with exponent ``zipf_exponent``
        (rank 1 hottest);
    ``hotspot``
        one "hot" port receives ``hotspot_fraction`` of the traffic, and the
        hot port moves to the next one every ``hotspot_interval`` simulated
        seconds (a moving hotspot).
    """

    kind: str = "uniform"
    zipf_exponent: float = 1.1
    hotspot_fraction: float = 0.8
    hotspot_interval: float = 5.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in POPULARITY_MODELS:
            raise ValueError(
                f"unknown popularity kind {self.kind!r}; "
                f"expected one of {tuple(POPULARITY_MODELS)}"
            )
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if not 0.0 < self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in (0, 1]")
        if self.hotspot_interval <= 0:
            raise ValueError("hotspot_interval must be positive")


@dataclass(frozen=True)
class ChurnSpec:
    """How the server population and rendezvous state shift under load.

    Events occur as a Poisson process at ``rate`` events per simulated
    second.  ``migration`` moves a random server to a random node;
    ``failover`` crashes a server-hosting node (killing its servers, which
    are respawned elsewhere) and recovers it ``downtime`` seconds later;
    ``storm`` wipes the posting caches of a ``storm_fraction`` sample of
    nodes (servers then re-post); ``mixed`` draws uniformly among the three.
    """

    kind: str = "none"
    rate: float = 0.0
    downtime: float = 1.0
    storm_fraction: float = 0.25

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in CHURN_MODELS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; "
                f"expected one of {tuple(CHURN_MODELS)}"
            )
        if self.kind != "none" and self.rate <= 0:
            raise ValueError("churn rate must be positive for active churn")
        if self.downtime <= 0:
            raise ValueError("downtime must be positive")
        if not 0.0 < self.storm_fraction <= 1.0:
            raise ValueError("storm_fraction must be in (0, 1]")


@dataclass(frozen=True)
class FaultRegimeSpec:
    """A scheduled fault timeline, declaratively.

    Unlike churn (which reshuffles the *server population*), a fault regime
    attacks the *substrate* on a schedule, advancing the network's fault-plan
    revision mid-run:

    ``none``
        a fault-free run;
    ``waves``
        ``events`` crash waves of ``size`` random nodes each, every node
        recovering ``downtime`` seconds after its wave struck;
    ``flaps``
        ``events`` link flaps — a random link fails and heals ``downtime``
        later (the same link may flap repeatedly);
    ``partition``
        ``events`` region partitions: all links around a BFS region of
        ``size`` nodes are cut, then healed ``downtime`` later;
    ``correlated``
        ``events`` correlated failures: an epicenter plus up to ``size - 1``
        neighbours crash together and recover together.

    The first event fires at ``start`` seconds of scenario time; subsequent
    events are ``period`` apart.
    """

    kind: str = "none"
    events: int = 2
    size: int = 2
    start: float = 0.5
    period: float = 1.0
    downtime: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in FAULT_REGIMES:
            raise ValueError(
                f"unknown fault regime kind {self.kind!r}; "
                f"expected one of {tuple(FAULT_REGIMES)}"
            )
        if self.events < 1 or self.size < 1:
            raise ValueError("events and size must be at least 1")
        if self.start < 0 or self.period <= 0 or self.downtime <= 0:
            raise ValueError(
                "start must be non-negative; period and downtime positive"
            )

    @property
    def label(self) -> str:
        """A compact identity string for matrix-cell names and reports.

        ``size`` only appears for kinds that use it (flaps always hit one
        link at a time): each kind's template sits in :data:`FAULT_REGIMES`.
        """
        template = FAULT_REGIMES[self.kind][0]
        return template.format(kind=self.kind, events=self.events, size=self.size)


@dataclass(frozen=True)
class SloSpec:
    """A declarative service-level objective for a timed scenario.

    ``latency_objective`` is the per-request latency bound in virtual
    seconds; ``latency_target`` the fraction of requests that must meet it
    (e.g. 0.99 — "99% of requests under 10ms").  ``availability_target``
    is the fraction of requests that must succeed at all.  ``window`` is
    the telemetry window width in virtual seconds: the run's
    :class:`~repro.obs.timeline.Timeline` buckets by it, and burn rates
    are evaluated per window on the virtual clock, so a 50ms burst trips
    the monitor even when the whole-run average would hide it.

    SLOs only bind on *timed* runs (the virtual clock is what the
    objective is measured against); an untimed run carries the spec in its
    identity but records no windows and no burn rates.
    """

    latency_objective: float = 0.01
    latency_target: float = 0.99
    availability_target: float = 0.999
    window: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        if self.latency_objective <= 0:
            raise ValueError("latency_objective must be positive")
        if not 0.0 < self.latency_target < 1.0:
            raise ValueError("latency_target must be in (0, 1)")
        if not 0.0 < self.availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        if self.window <= 0:
            raise ValueError("window must be positive")

    @property
    def label(self) -> str:
        """A compact identity string for reports."""
        return (
            f"p{self.latency_target:.4g}<{self.latency_objective:.4g}s"
            f"@{self.window:.4g}s"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, reproducible workload scenario."""

    name: str = "scenario"
    topology: str = "complete:64"
    strategy: str = "checkerboard"
    operations: int = 10_000
    clients: int = 16
    servers: int = 4
    ports: int = 4
    delivery_mode: str = "ideal"
    seed: int = 0
    max_retries: int = 3
    #: When False every request runs a fresh locate (the client's private
    #: address cache is bypassed) — useful for pure locate-throughput runs.
    cache_addresses: bool = True
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    popularity: PopularitySpec = field(default_factory=PopularitySpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    faults: FaultRegimeSpec = field(default_factory=FaultRegimeSpec)
    #: Optional discrete-event time model (``repro.simtime``).  ``None``
    #: keeps the run untimed and its serialized form *key-free* (``encode``
    #: leaves ``None`` out), so every pre-simtime digest is preserved.
    time_model: Optional[TimeModelSpec] = None
    #: Optional SLO evaluated per virtual-time window on timed runs.
    #: ``None`` omits the key from the JSON (same digest contract
    #: as ``time_model``), so every pre-SLO scenario identity is preserved.
    slo: Optional[SloSpec] = None

    def __post_init__(self) -> None:
        if self.operations < 1:
            raise ValueError("operations must be at least 1")
        if self.clients < 1 or self.servers < 1 or self.ports < 1:
            raise ValueError("clients, servers and ports must be at least 1")
        if self.servers < self.ports:
            raise ValueError(
                "need at least one server per port "
                f"(servers={self.servers}, ports={self.ports})"
            )

    def with_strategy(self, strategy: str) -> "ScenarioSpec":
        """A copy of this spec running a different strategy, named
        ``name:strategy``."""
        return replace(self, strategy=strategy, name=f"{self.name}:{strategy}")


# -- seed derivation ---------------------------------------------------------------

def stable_seed(master_seed: int, key: str) -> int:
    """A deterministic, process-independent seed for ``key``.

    SHA-256 over ``master_seed/key``, truncated to 63 bits — stable across
    interpreter invocations, hash randomization and platforms, unlike
    ``hash()``.  The matrix engine seeds every cell from its grid
    coordinates this way, so neither cell execution order nor the worker
    count that ran a cell can ever influence its random streams.
    """
    digest = hashlib.sha256(f"{master_seed}/{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- name resolution ---------------------------------------------------------------

def _int_args(spec: str, argument: str, expected: int) -> List[int]:
    parts = argument.split("x") if argument else []
    if len(parts) != expected:
        raise ValueError(
            f"topology spec {spec!r} needs {expected} integer argument(s)"
        )
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"topology spec {spec!r} has non-integer arguments") from None


#: Topology family -> (builder, number of ``x``-separated integer arguments).
TOPOLOGIES: Dict[str, Tuple[Callable[..., Topology], int]] = {
    "complete": (CompleteTopology, 1),
    "ring": (RingTopology, 1),
    "star": (StarTopology, 1),
    "manhattan": (ManhattanTopology.square, 1),
    "hypercube": (HypercubeTopology, 1),
    "ccc": (CubeConnectedCyclesTopology, 1),
    "projective": (ProjectivePlaneTopology, 1),
    "hierarchy": (HierarchicalTopology.uniform, 2),  # branching x levels
    "tree": (TreeTopology.balanced, 2),  # branching x depth
}


def build_topology(spec: str) -> Topology:
    """Instantiate a topology from a ``"family:args"`` string, e.g.
    ``"manhattan:8"`` or ``"tree:2x3"``; the families are the keys of
    :data:`TOPOLOGIES`."""
    family, _, argument = spec.partition(":")
    family = family.strip().lower()
    if family not in TOPOLOGIES:
        raise ValueError(f"unknown topology family {family!r} in {spec!r}")
    factory, arity = TOPOLOGIES[family]
    return factory(*_int_args(spec, argument, arity))


#: Strategy name -> (the topology class it requires, factory).  A universe
#: strategy requires none (``None``): its factory takes the node universe.
#: A topology strategy's factory takes the topology, which must be an
#: instance of the class; ``subgraph`` runs on any connected graph through
#: the O(sqrt n) decomposition.
STRATEGIES: Dict[str, Tuple[Optional[type], Callable[[Any], MatchMakingStrategy]]] = {
    "broadcast": (None, BroadcastStrategy),
    "sweep": (None, SweepStrategy),
    "centralized": (
        None,
        lambda universe: CentralizedStrategy(universe, sorted(universe, key=repr)[0]),
    ),
    "checkerboard": (None, CheckerboardStrategy),
    "full": (None, FullStrategy),
    "hash-locate": (None, lambda universe: HashLocateStrategy(universe, replicas=1)),
    "manhattan": (ManhattanTopology, ManhattanStrategy),
    "hypercube": (HypercubeTopology, HypercubeStrategy),
    "ccc": (CubeConnectedCyclesTopology, CubeConnectedCyclesStrategy),
    "projective": (ProjectivePlaneTopology, ProjectivePlaneStrategy),
    "hierarchy": (HierarchicalTopology, HierarchicalGatewayStrategy),
    "tree": (TreeTopology, TreePathStrategy),
    "subgraph": (
        Topology,
        lambda topology: SubgraphDecompositionStrategy(decompose(topology.graph)),
    ),
}


def strategy_names() -> List[str]:
    """Every strategy name :func:`build_strategy` accepts, sorted."""
    return sorted(STRATEGIES)


def build_strategy(name: str, topology: Topology) -> MatchMakingStrategy:
    """Instantiate the :data:`STRATEGIES` entry ``name`` for ``topology``.

    A topology that is not the class the strategy requires is a
    :class:`StrategyError` (the matrix engine skips that cell); an unknown
    name is a ``ValueError``, bad input that nothing skips.
    """
    name = name.strip().lower()
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r}; known: {', '.join(strategy_names())}"
        )
    required, factory = STRATEGIES[name]
    if required is None:
        return factory(topology.nodes())
    if not isinstance(topology, required):
        raise StrategyError(
            f"strategy {name!r} requires a {required.__name__}, "
            f"got {type(topology).__name__}"
        )
    return factory(topology)


def _waves(regime, graph, rng, protected) -> FaultTimeline:
    return crash_recover_waves(
        graph, rng,
        waves=regime.events, wave_size=regime.size,
        start=regime.start, period=regime.period,
        downtime=regime.downtime, protected=protected,
    )


def _flaps(regime, graph, rng, protected) -> FaultTimeline:
    return link_flaps(
        graph, rng,
        flaps=regime.events, start=regime.start,
        period=regime.period, downtime=regime.downtime,
    )


def _partitions(regime, graph, rng, protected) -> FaultTimeline:
    timeline = FaultTimeline()
    for event in range(regime.events):
        at = regime.start + event * regime.period
        timeline = timeline.merged(region_partition(
            graph, rng,
            at=at, heal_at=at + regime.downtime,
            region_size=regime.size,
        ))
    return timeline


def _correlated(regime, graph, rng, protected) -> FaultTimeline:
    return correlated_failures(
        graph, rng,
        shots=regime.events, start=regime.start,
        period=regime.period, downtime=regime.downtime,
        blast_radius=regime.size, protected=protected,
    )


#: Fault-regime kind -> (label template, builder ``(regime, graph, rng,
#: protected) -> FaultTimeline``).
FAULT_REGIMES: Dict[str, Tuple[str, Callable[..., FaultTimeline]]] = {
    "none": ("{kind}", lambda regime, graph, rng, protected: FaultTimeline()),
    "waves": ("{kind}(e{events},s{size})", _waves),
    "flaps": ("{kind}(e{events})", _flaps),
    "partition": ("{kind}(e{events},s{size})", _partitions),
    "correlated": ("{kind}(e{events},s{size})", _correlated),
}


def build_fault_timeline(
    regime: FaultRegimeSpec,
    graph: Graph,
    rng: random.Random,
    protected: Iterable[Hashable] = (),
) -> FaultTimeline:
    """Materialize a declarative fault regime against a concrete graph.

    All random choices (which nodes a wave fells, which links flap, where a
    partition sits) come from ``rng``, so the same regime + seed yields the
    same timeline.  ``protected`` nodes — client hosts, whose death would
    abort the request stream — are never crashed; links around them may
    still fail, which only costs availability.
    """
    return FAULT_REGIMES[regime.kind][1](regime, graph, rng, protected)
