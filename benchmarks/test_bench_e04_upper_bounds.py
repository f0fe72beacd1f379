"""E4 — Section 2.3.4, Propositions 3-4: matching upper bounds.

The checkerboard construction achieves #P·#Q ≈ n and #P + #Q ≈ 2·sqrt(n)
across a range of network sizes (Proposition 3), and the 4n-lift doubles the
average cost while quadrupling the node count (Proposition 4).
"""

import math

from repro.core import bounds


SIZES = (16, 36, 64, 100, 144)


def run_upper_bound_experiment():
    rows = []
    for n in SIZES:
        matrix = bounds.checkerboard_matrix(list(range(n)))
        rows.append(
            {
                "n": n,
                "m(n)": matrix.average_cost(),
                "optimum": 2 * math.sqrt(n),
                "avg_product": matrix.average_product(),
                "total": matrix.is_total(),
            }
        )
    base = bounds.checkerboard_matrix(list(range(25)))
    lifted = bounds.lift_matrix(base)
    lift_row = {
        "base_n": base.n,
        "lift_n": lifted.n,
        "base_cost": base.average_cost(),
        "lift_cost": lifted.average_cost(),
    }
    return rows, lift_row


def test_bench_e04_proposition_3_and_4():
    rows, lift_row = run_upper_bound_experiment()

    for row in rows:
        assert row["total"]
        # Proposition 3: the construction achieves the lower bound exactly on
        # perfect squares.
        assert row["m(n)"] == row["optimum"]
        assert row["avg_product"] == row["n"]

    # Proposition 4: 4n nodes, exactly twice the average cost.
    assert lift_row["lift_n"] == 4 * lift_row["base_n"]
    assert lift_row["lift_cost"] == 2 * lift_row["base_cost"]
