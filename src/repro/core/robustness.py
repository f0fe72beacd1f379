"""Robustness and fault-tolerance analysis (section 2.4).

The paper distinguishes two robustness criteria for a name server:

* **Distribution** — "no number of node crashes, which leaves a surviving
  network, can prevent surviving clients from locating surviving servers
  offering a desired service (for instance, by first moving to another
  address)."  A centralized name server fails this; broadcasting, sweeping,
  the checkerboard, hierarchical and hypercube strategies pass.
* **Redundancy** — "no number of node crashes can prevent a client at a
  surviving node from locating a service offered at a surviving node", i.e.
  crashes of *rendezvous* nodes must not break existing pairs.  Choosing
  ``#(P(i) ∩ Q(j)) ≥ f + 1`` tolerates ``f`` simultaneous faults.

This module classifies strategies/matrices against both criteria and
quantifies the price of redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set

from .rendezvous import RendezvousMatrix


@dataclass(frozen=True)
class RobustnessReport:
    """Summary of a matrix's robustness properties."""

    fault_tolerance: int
    min_rendezvous_size: int
    max_rendezvous_size: int
    critical_nodes: FrozenSet[Hashable]
    is_distributed: bool


def fault_tolerance(matrix: RendezvousMatrix) -> int:
    """Number of arbitrary node crashes every pair survives.

    This is ``min_ij #r_ij − 1`` (section 2.4's ``f``): a pair keeps at least
    one live rendezvous node under any ``f`` crashes iff every rendezvous set
    has more than ``f`` members.
    """
    return max(matrix.min_redundancy() - 1, 0)


def critical_nodes(matrix: RendezvousMatrix) -> FrozenSet[Hashable]:
    """Nodes whose individual crash removes the only rendezvous of some
    pair."""
    critical: Set[Hashable] = set()
    for server in matrix.nodes:
        for client in matrix.nodes:
            entry = matrix.entry(server, client)
            if len(entry) == 1:
                critical.add(next(iter(entry)))
    return frozenset(critical)


def is_distributed(matrix: RendezvousMatrix) -> bool:
    """Whether the matrix has no *global* single point of failure.

    A strategy is centralized (not distributed) when there is a node whose
    crash leaves every *surviving* client/server pair without a surviving
    rendezvous node — that single crash takes the whole name service out, as
    with Example 3's well-known node.  The distributed criterion of section
    2.4 rules this out: after any single crash at least some pairs can still
    meet (and servers can escape the outage by moving).
    """
    # Only a node contained in every entry of every pair that does not
    # involve it can possibly be such a global point of failure.
    candidates: Optional[FrozenSet[Hashable]] = None
    for server in matrix.nodes:
        for client in matrix.nodes:
            entry = matrix.entry(server, client)
            relevant = entry | {server, client}
            candidates = relevant if candidates is None else (candidates & relevant)
            if not candidates:
                return True
    if not candidates:
        return True
    for candidate in candidates:
        breaks_everything = True
        for server in matrix.nodes:
            if server == candidate:
                continue
            for client in matrix.nodes:
                if client == candidate:
                    continue
                if matrix.entry(server, client) - {candidate}:
                    breaks_everything = False
                    break
            if not breaks_everything:
                break
        if breaks_everything:
            return False
    return True


def analyse(matrix: RendezvousMatrix) -> RobustnessReport:
    """Full robustness report for a matrix."""
    sizes = [
        len(matrix.entry(server, client))
        for server in matrix.nodes
        for client in matrix.nodes
    ]
    return RobustnessReport(
        fault_tolerance=fault_tolerance(matrix),
        min_rendezvous_size=min(sizes),
        max_rendezvous_size=max(sizes),
        critical_nodes=critical_nodes(matrix),
        is_distributed=is_distributed(matrix),
    )


def pair_survives(
    matrix: RendezvousMatrix,
    server: Hashable,
    client: Hashable,
    crashed: Iterable[Hashable],
) -> bool:
    """Whether the (server, client) pair can still rendezvous after
    ``crashed`` nodes fail.

    The pair itself must be alive and at least one of its rendezvous nodes
    must survive.  (Whether the surviving network can still *route* between
    them is a separate question the paper sets aside; the simulator answers
    it when experiments run on real topologies.)
    """
    down = set(crashed)
    if server in down or client in down:
        return False
    return bool(set(matrix.entry(server, client)) - down)


def surviving_pairs_fraction(
    matrix: RendezvousMatrix, crashed: Iterable[Hashable]
) -> float:
    """Fraction of surviving (server, client) pairs that can still meet."""
    down = set(crashed)
    alive = [node for node in matrix.nodes if node not in down]
    if not alive:
        return 0.0
    total = 0
    matched = 0
    for server in alive:
        for client in alive:
            total += 1
            if pair_survives(matrix, server, client, down):
                matched += 1
    return matched / total if total else 0.0


def redundancy_price(matrix: RendezvousMatrix) -> Dict[str, float]:
    """Quantify the cost of the matrix's redundancy.

    Returns the average cost ``m(n)``, the minimum possible cost a
    singleton-rendezvous variant could achieve given the same load profile
    (the Proposition 2 bound), and their ratio — "robustness is inefficient
    and has a price tag in number of message passes" (section 2.4).
    """
    from .bounds import proposition2_bound

    multiplicities = list(matrix.multiplicities().values())
    actual = matrix.average_cost()
    bound = proposition2_bound(multiplicities, matrix.n)
    return {
        "average_cost": actual,
        "lower_bound": bound,
        "overhead_ratio": actual / bound if bound else float("inf"),
        "fault_tolerance": float(fault_tolerance(matrix)),
    }
