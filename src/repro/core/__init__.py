"""The paper's primary contribution: the theory and engine of distributed
match-making.

* :mod:`~repro.core.strategy` — the ``P, Q: U -> 2^U`` strategy abstraction;
* :mod:`~repro.core.rendezvous` — the rendezvous matrix and its statistics;
* :mod:`~repro.core.bounds` — Propositions 1-4 (lower bounds and matching
  constructions);
* :mod:`~repro.core.probabilistic` — the random-choice analysis of §2.2;
* :mod:`~repro.core.robustness` — the fault-tolerance criteria of §2.4;
* :mod:`~repro.core.matchmaker` — the operational engine running strategies
  on the simulated network.
"""

from . import bounds, probabilistic, robustness
from .exceptions import (
    MatchMakingError,
    NetworkError,
    NoRouteError,
    NodeDownError,
    ProcessLifecycleError,
    ServiceError,
    StrategyError,
    TopologyError,
    UnknownNodeError,
)
from .matchmaker import MatchMaker, ServerRegistration
from .rendezvous import RendezvousMatrix
from .strategy import FunctionalStrategy, MatchMakingStrategy
from .types import (
    Address,
    MatchResult,
    Port,
    PostRecord,
)

__all__ = [
    "Address",
    "FunctionalStrategy",
    "MatchMaker",
    "MatchMakingError",
    "MatchMakingStrategy",
    "MatchResult",
    "NetworkError",
    "NoRouteError",
    "NodeDownError",
    "Port",
    "PostRecord",
    "ProcessLifecycleError",
    "RendezvousMatrix",
    "ServerRegistration",
    "ServiceError",
    "StrategyError",
    "TopologyError",
    "UnknownNodeError",
    "bounds",
    "probabilistic",
    "robustness",
]
