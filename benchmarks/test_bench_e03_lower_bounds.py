"""E3 — Section 2.3.2, Propositions 1-2: the lower bound on m(n).

For every strategy in the paper's range (broadcast, sweep, centralized,
checkerboard, hash) the measured average cost m(n) is compared against its
own Proposition-2 bound (2/n)·Σ sqrt(k_i); the truly distributed case is
checked against 2*sqrt(n) and the centralized case against 2.
"""

import math

from repro.core import bounds
from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import default_registry

N = 64


def run_lower_bound_experiment():
    universe = list(range(N))
    registry = default_registry()
    rows = []
    for name, strategy in registry.create_all(universe).items():
        matrix = RendezvousMatrix.from_strategy(strategy, universe, port=None) \
            if not strategy.port_dependent else None
        if matrix is None:
            from repro.core.types import Port

            matrix = RendezvousMatrix.from_strategy(
                strategy, universe, port=Port("bench")
            )
        measured, bound = bounds.verify_proposition2(matrix)
        product, product_bound = bounds.verify_proposition1(matrix)
        rows.append(
            {
                "strategy": name,
                "m(n)": measured,
                "bound": bound,
                "product": product,
                "product_bound": product_bound,
            }
        )
    return rows


def test_bench_e03_proposition_1_and_2():
    rows = run_lower_bound_experiment()

    for row in rows:
        assert row["m(n)"] >= row["bound"] - 1e-9, row["strategy"]
        assert row["product"] >= row["product_bound"] - 1e-9, row["strategy"]

    by_name = {row["strategy"]: row for row in rows}
    # Truly distributed: bound = 2*sqrt(n) and the checkerboard meets it.
    checker = by_name["checkerboard"]
    assert checker["bound"] == math.isqrt(N) * 2
    assert checker["m(n)"] == checker["bound"]
    # Centralized: bound = 2, met exactly.
    central = by_name["centralized"]
    assert central["bound"] == 2.0
    assert central["m(n)"] == 2.0
    # Broadcast/sweep sit at n + 1, far above the truly distributed optimum.
    assert by_name["broadcast"]["m(n)"] == N + 1
    assert by_name["sweep"]["m(n)"] == N + 1
    # The most inefficient strategy costs 2n.
    assert by_name["full"]["m(n)"] == bounds.most_inefficient_cost(N)
