"""Probabilistic analysis of random match-making (section 2.2).

If a server posts at ``p`` uniformly random nodes and a client independently
queries ``q`` uniformly random nodes of an ``n``-node universe, then the
probability that any particular node is in both sets is ``p·q/n²`` and the
expected intersection size is ``E|P ∩ Q| = p·q/n``.  To *expect* one full
rendezvous node the strategy therefore needs ``p + q ≥ 2·sqrt(n)``.

Besides the expectation, this module gives the exact hit probability (a
hypergeometric tail) and Monte-Carlo estimators used by the experiments to
confirm the formulas.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


def expected_intersection(p: int, q: int, n: int) -> float:
    """``E|P ∩ Q| = p·q/n`` for independent uniform random P, Q."""
    _validate(p, q, n)
    return (p * q) / n


def minimum_sum_for_expected_match(n: int) -> float:
    """The least ``p + q`` for which ``E|P ∩ Q| ≥ 1``: ``2·sqrt(n)``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return 2.0 * math.sqrt(n)


def match_probability(p: int, q: int, n: int) -> float:
    """Exact probability that random ``P`` and ``Q`` intersect.

    ``P`` is a uniform random p-subset and ``Q`` an independent uniform
    random q-subset of an n-set; the miss probability is the hypergeometric
    ``C(n - p, q) / C(n, q)``.
    """
    _validate(p, q, n)
    if p + q > n:
        return 1.0
    miss = math.comb(n - p, q) / math.comb(n, q)
    return 1.0 - miss


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a Monte-Carlo estimate of random match-making."""

    trials: int
    mean_intersection: float
    hit_fraction: float
    expected_intersection: float
    predicted_hit_probability: float


def monte_carlo(
    p: int, q: int, n: int, trials: int, rng: random.Random
) -> MonteCarloResult:
    """Estimate intersection statistics by sampling random P and Q."""
    _validate(p, q, n)
    if trials <= 0:
        raise ValueError("trials must be positive")
    universe = list(range(n))
    total_intersection = 0
    hits = 0
    for _ in range(trials):
        post_set = set(rng.sample(universe, p))
        query_set = set(rng.sample(universe, q))
        overlap = len(post_set & query_set)
        total_intersection += overlap
        if overlap:
            hits += 1
    return MonteCarloResult(
        trials=trials,
        mean_intersection=total_intersection / trials,
        hit_fraction=hits / trials,
        expected_intersection=expected_intersection(p, q, n),
        predicted_hit_probability=match_probability(p, q, n),
    )


def _validate(p: int, q: int, n: int) -> None:
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 < p <= n:
        raise ValueError(f"p must be in 1..{n}, got {p}")
    if not 0 < q <= n:
        raise ValueError(f"q must be in 1..{n}, got {q}")
