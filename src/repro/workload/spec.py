"""Declarative workload scenario specifications.

A :class:`ScenarioSpec` describes one traffic experiment completely — the
topology, the match-making strategy, the process population, the arrival
process, the popularity model and the churn model — as plain data.  Specs
round-trip through ``to_dict``/``from_dict`` so a recorded trace can embed
the scenario it was captured under and a benchmark can persist exactly what
it ran.

The spec layer also owns the name-to-object resolvers ``build_topology`` and
``build_strategy``, so scenarios can be written as strings (``"manhattan:8"``
+ ``"checkerboard"``) without importing half the package.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Hashable, Iterable, List, Optional

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
from ..simtime.model import TimeModelSpec, reject_unknown_keys, require_finite
from ..strategies import (
    CubeConnectedCyclesStrategy,
    HierarchicalGatewayStrategy,
    HypercubeStrategy,
    ManhattanStrategy,
    ProjectivePlaneStrategy,
    SubgraphDecompositionStrategy,
    TreePathStrategy,
    default_registry,
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

#: Arrival process kinds.
ARRIVAL_KINDS = ("closed", "poisson", "burst")
#: Popularity model kinds.
POPULARITY_KINDS = ("uniform", "zipf", "hotspot")
#: Churn model kinds.
CHURN_KINDS = ("none", "migration", "failover", "storm", "mixed")
#: Fault-regime kinds.
FAULT_REGIME_KINDS = ("none", "waves", "flaps", "partition", "correlated")


def part_from_dict(cls: type, data: Dict[str, object]):
    """One nested spec (arrival, popularity, churn, faults, slo) from its
    dict, an unknown key rejected by name like a top-level one — not as a
    ``TypeError`` about ``__init__``."""
    reject_unknown_keys(cls, data)
    return cls(**data)


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
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}"
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
        if self.kind not in POPULARITY_KINDS:
            raise ValueError(
                f"unknown popularity kind {self.kind!r}; "
                f"expected one of {POPULARITY_KINDS}"
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
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; expected one of {CHURN_KINDS}"
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
        if self.kind not in FAULT_REGIME_KINDS:
            raise ValueError(
                f"unknown fault regime kind {self.kind!r}; "
                f"expected one of {FAULT_REGIME_KINDS}"
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
        link at a time).
        """
        if self.kind == "none":
            return "none"
        if self.kind == "flaps":
            return f"flaps(e{self.events})"
        return f"{self.kind}(e{self.events},s{self.size})"


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
    #: keeps the run untimed and its serialized form *key-free* — see
    #: :meth:`to_dict` — so every pre-simtime digest is preserved.
    time_model: Optional[TimeModelSpec] = None
    #: Optional SLO evaluated per virtual-time window on timed runs.
    #: ``None`` omits the key from :meth:`to_dict` (same digest contract
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

    def with_strategy(self, strategy: str, name: str = "") -> "ScenarioSpec":
        """A copy of this spec running a different strategy."""
        return replace(self, strategy=strategy, name=name or f"{self.name}:{strategy}")

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary describing this scenario.

        An untimed spec omits the ``time_model`` key entirely (rather than
        emitting ``null``): trace headers, cache keys and digests of every
        scenario recorded before — or simply without — the time model stay
        byte-identical.
        """
        data = asdict(self)
        if self.time_model is None:
            del data["time_model"]
        else:
            data["time_model"] = self.time_model.to_dict()
        if self.slo is None:
            del data["slo"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys are rejected by name, as :meth:`MatrixSpec.from_dict`
        does — a typoed field must not surface as a ``TypeError`` about
        ``__init__``.
        """
        reject_unknown_keys(cls, data)
        payload = dict(data)
        # Traces recorded before fault regimes existed have no "faults" key.
        for key, part in (
            ("arrival", ArrivalSpec), ("popularity", PopularitySpec),
            ("churn", ChurnSpec), ("faults", FaultRegimeSpec),
        ):
            payload[key] = part_from_dict(part, payload.get(key, {}))
        time_model = payload.get("time_model")
        if time_model and not isinstance(time_model, TimeModelSpec):
            time_model = TimeModelSpec.from_dict(time_model)
        payload["time_model"] = time_model or None
        slo = payload.get("slo")
        if slo and not isinstance(slo, SloSpec):
            slo = part_from_dict(SloSpec, slo)
        payload["slo"] = slo or None
        return cls(**payload)


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


def build_topology(spec: str) -> Topology:
    """Instantiate a topology from a ``"family:args"`` string.

    Supported: ``complete:n``, ``ring:n``, ``star:n``, ``manhattan:side``,
    ``hypercube:d``, ``ccc:d``, ``projective:order``, ``hierarchy:bxl``
    (branching x levels) and ``tree:bxd`` (branching x depth).
    """
    family, _, argument = spec.partition(":")
    family = family.strip().lower()
    if family == "complete":
        return CompleteTopology(_int_args(spec, argument, 1)[0])
    if family == "ring":
        return RingTopology(_int_args(spec, argument, 1)[0])
    if family == "star":
        return StarTopology(_int_args(spec, argument, 1)[0])
    if family == "manhattan":
        return ManhattanTopology.square(_int_args(spec, argument, 1)[0])
    if family == "hypercube":
        return HypercubeTopology(_int_args(spec, argument, 1)[0])
    if family == "ccc":
        return CubeConnectedCyclesTopology(_int_args(spec, argument, 1)[0])
    if family == "projective":
        return ProjectivePlaneTopology(_int_args(spec, argument, 1)[0])
    if family == "hierarchy":
        branching, levels = _int_args(spec, argument, 2)
        return HierarchicalTopology.uniform(branching, levels)
    if family == "tree":
        branching, depth = _int_args(spec, argument, 2)
        return TreeTopology.balanced(branching, depth)
    raise ValueError(f"unknown topology family {family!r} in {spec!r}")


#: Topology-specific strategies: name -> (required topology class, factory).
_TOPOLOGY_STRATEGIES = {
    "manhattan": (ManhattanTopology, ManhattanStrategy),
    "hypercube": (HypercubeTopology, HypercubeStrategy),
    "ccc": (CubeConnectedCyclesTopology, CubeConnectedCyclesStrategy),
    "projective": (ProjectivePlaneTopology, ProjectivePlaneStrategy),
    "hierarchy": (HierarchicalTopology, HierarchicalGatewayStrategy),
    "tree": (TreeTopology, TreePathStrategy),
}


def strategy_names() -> List[str]:
    """Every strategy name :func:`build_strategy` accepts."""
    return sorted(
        set(default_registry().names()) | set(_TOPOLOGY_STRATEGIES) | {"subgraph"}
    )


def build_strategy(name: str, topology: Topology) -> MatchMakingStrategy:
    """Instantiate a strategy by name for ``topology``.

    Universe-based strategies come from the default registry; the
    topology-specific section-3 strategies require a matching topology and
    ``"subgraph"`` works on any connected graph via the O(sqrt n)
    decomposition.
    """
    name = name.strip().lower()
    if name in _TOPOLOGY_STRATEGIES:
        required, factory = _TOPOLOGY_STRATEGIES[name]
        if not isinstance(topology, required):
            raise StrategyError(
                f"strategy {name!r} requires a {required.__name__}, "
                f"got {type(topology).__name__}"
            )
        return factory(topology)
    if name == "subgraph":
        return SubgraphDecompositionStrategy(decompose(topology.graph))
    registry = default_registry()
    if name not in registry.names():
        raise StrategyError(
            f"unknown strategy {name!r}; known: {', '.join(strategy_names())}"
        )
    return registry.create(name, topology.nodes())


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
    if regime.kind == "none":
        return FaultTimeline()
    if regime.kind == "waves":
        return crash_recover_waves(
            graph, rng,
            waves=regime.events, wave_size=regime.size,
            start=regime.start, period=regime.period,
            downtime=regime.downtime, protected=protected,
        )
    if regime.kind == "flaps":
        return link_flaps(
            graph, rng,
            flaps=regime.events, start=regime.start,
            period=regime.period, downtime=regime.downtime,
        )
    if regime.kind == "partition":
        timeline = FaultTimeline()
        for event in range(regime.events):
            at = regime.start + event * regime.period
            timeline = timeline.merged(region_partition(
                graph, rng,
                at=at, heal_at=at + regime.downtime,
                region_size=regime.size,
            ))
        return timeline
    if regime.kind == "correlated":
        return correlated_failures(
            graph, rng,
            shots=regime.events, start=regime.start,
            period=regime.period, downtime=regime.downtime,
            blast_radius=regime.size, protected=protected,
        )
    raise ValueError(f"unknown fault regime kind {regime.kind!r}")
