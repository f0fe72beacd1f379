"""Post/query trade-off analysis (sections 2.2, 2.3.2 and equation M3').

The central trade-off of the paper: to guarantee (or expect) a rendezvous,
the number of nodes a server posts at and the number a client queries must
multiply to at least ``n``, so their *sum* — the message-pass cost — is at
least ``2·sqrt(n)`` when both directions are equally frequent, and shifts
towards the cheaper direction when they are not (equation M3':
``m(i,j) = #P(i) + a_ij·#Q(j)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WeightedSplit:
    """The optimal (p, q) split for a given query/post frequency ratio."""

    ratio: float
    post_size: int
    query_size: int

    @property
    def weighted_cost(self) -> float:
        """``p + ratio·q`` — the weighted per-instance cost being
        minimised."""
        return self.post_size + self.ratio * self.query_size


def optimal_split(n: int, ratio: float = 1.0) -> WeightedSplit:
    """Minimise ``p + ratio·q`` subject to ``p·q ≥ n``.

    ``ratio`` is the paper's ``a_ij``: how much more often clients locate
    than servers post.  The continuous optimum is ``p = sqrt(ratio·n)``,
    ``q = sqrt(n/ratio)``; we round to integers keeping the coverage
    constraint.  ``ratio > 1`` (locates dominate) pushes work onto the
    server's posting, which is exactly the regime the section 3 generic
    algorithm targets (post at O(n) nodes, query only O(sqrt(n))).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    p = max(1, min(n, int(round(math.sqrt(ratio * n)))))
    q = max(1, math.ceil(n / p))
    # Rounding may allow shrinking p while keeping coverage; tidy up.
    while p > 1 and (p - 1) * q >= n:
        p -= 1
    return WeightedSplit(ratio=ratio, post_size=p, query_size=q)
