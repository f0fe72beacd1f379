"""E2 — Section 2.2: probabilistic analysis of random match-making.

Monte-Carlo measurement of E|P ∩ Q| and of the hit probability for random
post/query sets, compared against the closed forms pq/n and the
hypergeometric tail, and the p + q >= 2*sqrt(n) threshold for expecting one
rendezvous.
"""

import math
import random

from repro.core import probabilistic

N = 144
TRIALS = 1500


def run_probabilistic_experiment():
    """Monte-Carlo sweep of (p, q) splits on an n-node universe."""
    rng = random.Random(2024)
    rows = []
    for p, q in ((4, 4), (6, 6), (12, 12), (12, 24), (24, 24)):
        result = probabilistic.monte_carlo(p, q, N, trials=TRIALS, rng=rng)
        rows.append(
            {
                "p": p,
                "q": q,
                "measured_E": result.mean_intersection,
                "predicted_E": result.expected_intersection,
                "measured_hit": result.hit_fraction,
                "predicted_hit": result.predicted_hit_probability,
            }
        )
    return rows


def test_bench_e02_random_matchmaking():
    rows = run_probabilistic_experiment()

    for row in rows:
        # Expectation formula pq/n verified by measurement.
        assert row["measured_E"] == row["predicted_E"] == row["p"] * row["q"] / N or (
            abs(row["measured_E"] - row["predicted_E"]) < 0.25
        )
        # Hit probability matches the hypergeometric prediction.
        assert abs(row["measured_hit"] - row["predicted_hit"]) < 0.06

    # The E = 1 threshold sits at p + q = 2*sqrt(n) = 24.
    threshold = probabilistic.minimum_sum_for_expected_match(N)
    assert threshold == 2 * math.sqrt(N)
    below = next(r for r in rows if r["p"] + r["q"] < threshold)
    at = next(r for r in rows if r["p"] + r["q"] == threshold)
    above = next(r for r in rows if r["p"] + r["q"] > threshold)
    assert below["predicted_E"] < 1.0
    assert at["predicted_E"] == 1.0
    assert above["predicted_E"] > 1.0
