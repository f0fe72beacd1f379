"""Popularity models: which service each request targets.

A popularity model maps ``(rng, now)`` to a port index.  The interesting
models are skewed — real request traffic concentrates on few hot services —
which is exactly what stresses a match-making strategy's load balance: a
centralized or hashed name server melts under a hotspot while the paper's
distributed strategies spread the same traffic evenly.
"""

from __future__ import annotations

import abc
import bisect
import random
from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:
    from .spec import PopularitySpec


class PopularityModel(abc.ABC):
    """Base class: a reproducible port-index chooser."""

    def __init__(self, ports: int) -> None:
        if ports < 1:
            raise ValueError("need at least one port")
        self._ports = ports

    @abc.abstractmethod
    def pick(self, rng: random.Random, now: float) -> int:
        """The port index of the next request, issued at time ``now``."""


class UniformPopularity(PopularityModel):
    """Every service equally popular."""

    def pick(self, rng: random.Random, now: float) -> int:
        return rng.randrange(self._ports)


class ZipfPopularity(PopularityModel):
    """Zipf-distributed popularity: port ``k`` has weight ``1/(k+1)^s``.

    Port 0 is the hottest.  Sampling inverts the cumulative weight table
    with a binary search, so a pick is O(log ports).
    """

    def __init__(self, ports: int, exponent: float = 1.1) -> None:
        super().__init__(ports)
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self._exponent = exponent
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(1, ports + 1):
            total += 1.0 / rank**exponent
            self._cumulative.append(total)

    def pick(self, rng: random.Random, now: float) -> int:
        target = rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, target)


class MovingHotspotPopularity(PopularityModel):
    """One hot service takes most of the traffic, and the hotspot moves.

    At time ``t`` the hot port is ``(t // interval) mod ports``; it receives
    ``fraction`` of the requests, the rest spread uniformly over the other
    ports.  Each hotspot move invalidates whatever locality clients and
    caches had built up — the adversarial case for cache-heavy designs.
    """

    def __init__(
        self, ports: int, fraction: float = 0.8, interval: float = 5.0
    ) -> None:
        super().__init__(ports)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._fraction = fraction
        self._interval = interval

    def hot_port(self, now: float) -> int:
        """The index of the hot port at time ``now``."""
        return int(now // self._interval) % self._ports

    def pick(self, rng: random.Random, now: float) -> int:
        hot = self.hot_port(now)
        if self._ports == 1 or rng.random() < self._fraction:
            return hot
        other = rng.randrange(self._ports - 1)
        return other if other < hot else other + 1


#: Popularity kind -> builder ``(spec, ports)``;
#: :class:`~repro.workload.spec.PopularitySpec` accepts exactly these kinds.
POPULARITY_MODELS: Dict[str, Callable[[PopularitySpec, int], PopularityModel]] = {
    "uniform": lambda spec, ports: UniformPopularity(ports),
    "zipf": lambda spec, ports: ZipfPopularity(ports, exponent=spec.zipf_exponent),
    "hotspot": lambda spec, ports: MovingHotspotPopularity(
        ports, fraction=spec.hotspot_fraction, interval=spec.hotspot_interval
    ),
}


def from_spec(spec: PopularitySpec, ports: int) -> PopularityModel:
    """Build the popularity model a :class:`PopularitySpec` describes."""
    return POPULARITY_MODELS[spec.kind](spec, ports)
