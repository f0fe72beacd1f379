"""Arrival processes: when requests enter the system and from which client.

An arrival process turns a :class:`~repro.workload.spec.ArrivalSpec` into a
deterministic stream of ``(time, client_index)`` pairs, given a seeded
random generator.  Times are simulated seconds on the same clock the churn
models use, so traffic and churn interleave reproducibly.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Tuple

if TYPE_CHECKING:
    from .spec import ArrivalSpec

#: Minimum simulated duration of one closed-loop round; keeps time advancing
#: (so hotspots move and churn fires) even with zero think time.
_MIN_ROUND = 1e-3


class ArrivalProcess(abc.ABC):
    """Base class: a reproducible stream of request arrivals."""

    @abc.abstractmethod
    def arrivals(
        self, rng: random.Random, operations: int, clients: int
    ) -> Iterator[Tuple[float, int]]:
        """Yield ``operations`` pairs of ``(time, client_index)``.

        Times are non-decreasing; client indices lie in ``range(clients)``.
        """


class ClosedLoopArrivals(ArrivalProcess):
    """A closed loop: every client keeps exactly one request in flight.

    Requests complete instantaneously in the simulator, so a closed loop of
    ``k`` clients is a round-robin over the clients with one round per
    ``think_time`` (at least :data:`_MIN_ROUND`) seconds.
    """

    def __init__(self, think_time: float = 0.0) -> None:
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self._round_length = max(think_time, _MIN_ROUND)

    def arrivals(
        self, rng: random.Random, operations: int, clients: int
    ) -> Iterator[Tuple[float, int]]:
        for op in range(operations):
            yield (op // clients) * self._round_length, op % clients

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClosedLoopArrivals(round={self._round_length})"


class PoissonArrivals(ArrivalProcess):
    """An open-loop Poisson stream: exponential inter-arrival times at
    ``rate`` requests/second, each request from a uniformly random client."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._rate = rate

    def arrivals(
        self, rng: random.Random, operations: int, clients: int
    ) -> Iterator[Tuple[float, int]]:
        now = 0.0
        for _ in range(operations):
            now += rng.expovariate(self._rate)
            yield now, rng.randrange(clients)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PoissonArrivals(rate={self._rate})"


class BurstArrivals(ArrivalProcess):
    """Bursty traffic: ``burst_size`` back-to-back requests, then silence.

    All requests of one burst carry the same timestamp (they arrive faster
    than the simulated clock resolves); bursts start ``burst_gap`` seconds
    apart.  Clients are drawn uniformly at random per request.
    """

    def __init__(self, burst_size: int, burst_gap: float) -> None:
        if burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if burst_gap < 0:
            raise ValueError("burst_gap must be non-negative")
        self._burst_size = burst_size
        self._burst_gap = max(burst_gap, _MIN_ROUND)

    def arrivals(
        self, rng: random.Random, operations: int, clients: int
    ) -> Iterator[Tuple[float, int]]:
        for op in range(operations):
            burst = op // self._burst_size
            yield burst * self._burst_gap, rng.randrange(clients)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BurstArrivals(size={self._burst_size}, gap={self._burst_gap})"


#: Arrival kind -> builder; :class:`~repro.workload.spec.ArrivalSpec`
#: accepts exactly these kinds.
ARRIVAL_PROCESSES: Dict[str, Callable[[ArrivalSpec], ArrivalProcess]] = {
    "closed": lambda spec: ClosedLoopArrivals(think_time=spec.think_time),
    "poisson": lambda spec: PoissonArrivals(rate=spec.rate),
    "burst": lambda spec: BurstArrivals(
        burst_size=spec.burst_size, burst_gap=spec.burst_gap
    ),
}


def from_spec(spec: ArrivalSpec) -> ArrivalProcess:
    """Build the arrival process an :class:`ArrivalSpec` describes."""
    return ARRIVAL_PROCESSES[spec.kind](spec)
