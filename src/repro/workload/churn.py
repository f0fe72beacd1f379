"""Churn models: how the server population shifts while traffic flows.

The paper's motivating system is in constant flux — "server processes can
migrate", nodes crash and recover, and cached rendezvous information decays.
A churn model turns a :class:`~repro.workload.spec.ChurnSpec` into a
deterministic schedule of abstract :class:`ChurnEvent`\\ s (a Poisson process
over the scenario's simulated duration).  The workload driver resolves each
abstract event against live system state — *which* server migrates *where*
— and records the resolution in the trace, so replays are exact.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

if TYPE_CHECKING:
    from .spec import ChurnSpec

#: Abstract churn event kinds.
MIGRATE = "migrate"
FAILOVER = "failover"
STORM = "storm"


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled churn event (not yet resolved to concrete targets)."""

    time: float
    kind: str


class ChurnModel(abc.ABC):
    """Base class: a reproducible churn event schedule."""

    @abc.abstractmethod
    def schedule(self, rng: random.Random, horizon: float) -> List[ChurnEvent]:
        """All churn events in ``[0, horizon)``, in time order."""


class NoChurn(ChurnModel):
    """A static system: no churn at all."""

    def schedule(self, rng: random.Random, horizon: float) -> List[ChurnEvent]:
        return []


class PoissonChurn(ChurnModel):
    """Churn events as a Poisson process at ``rate`` events/second, each
    event's kind drawn from ``kinds`` (uniformly, one rng draw per event)."""

    def __init__(self, rate: float, kinds: Sequence[str]) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not kinds:
            raise ValueError("need at least one event kind")
        self._rate = rate
        self._kinds = tuple(kinds)

    def schedule(self, rng: random.Random, horizon: float) -> List[ChurnEvent]:
        events: List[ChurnEvent] = []
        now = rng.expovariate(self._rate)
        while now < horizon:
            kind = self._kinds[0] if len(self._kinds) == 1 else rng.choice(self._kinds)
            events.append(ChurnEvent(time=now, kind=kind))
            now += rng.expovariate(self._rate)
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rate={self._rate}, kinds={self._kinds})"


#: Churn kind -> builder; :class:`~repro.workload.spec.ChurnSpec` accepts
#: exactly these kinds.  ``migration`` moves servers between nodes (paper
#: section 1.3); ``failover`` crashes server-hosting nodes, whose servers
#: respawn elsewhere (the freshest-posting-wins path); ``storm`` wipes
#: rendezvous caches en masse; ``mixed`` draws among the three per event.
CHURN_MODELS: Dict[str, Callable[[ChurnSpec], ChurnModel]] = {
    "none": lambda spec: NoChurn(),
    "migration": lambda spec: PoissonChurn(spec.rate, (MIGRATE,)),
    "failover": lambda spec: PoissonChurn(spec.rate, (FAILOVER,)),
    "storm": lambda spec: PoissonChurn(spec.rate, (STORM,)),
    "mixed": lambda spec: PoissonChurn(spec.rate, (MIGRATE, FAILOVER, STORM)),
}


def from_spec(spec: ChurnSpec) -> ChurnModel:
    """Build the churn model a :class:`ChurnSpec` describes."""
    return CHURN_MODELS[spec.kind](spec)
