"""The rendezvous matrix.

Section 2.3: "The n × n matrix R, with entries r_ij (1 ≤ i,j ≤ n) is the
rendez-vous matrix.  Each entry r_ij ... represents the set of rendez-vous
nodes where the client at node j can find the location and port of the server
at node i."

:class:`RendezvousMatrix` materialises that matrix for a strategy over an
explicit node universe and provides the quantities the paper's theory is
stated in: the multiplicities ``k_i`` (how often node ``i`` occurs in R), the
per-pair cost ``m(i,j)``, the average cost ``m(n)``, load statistics, and the
structural checks (M1), (M2).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .exceptions import StrategyError
from .strategy import MatchMakingStrategy
from .types import Port


class RendezvousMatrix:
    """The rendezvous matrix of a strategy over a fixed node universe.

    Rows are indexed by server node, columns by client node; each entry is
    the frozen set ``P(i) ∩ Q(j)``.
    """

    def __init__(
        self,
        nodes: Sequence[Hashable],
        entries: Mapping[Tuple[Hashable, Hashable], FrozenSet[Hashable]],
        post_sets: Mapping[Hashable, FrozenSet[Hashable]],
        query_sets: Mapping[Hashable, FrozenSet[Hashable]],
        strategy_name: str = "",
    ) -> None:
        self._nodes: List[Hashable] = list(nodes)
        self._entries = {key: frozenset(value) for key, value in entries.items()}
        self._post_sets = {node: frozenset(post_sets[node]) for node in self._nodes}
        self._query_sets = {node: frozenset(query_sets[node]) for node in self._nodes}
        self._strategy_name = strategy_name
        for server in self._nodes:
            for client in self._nodes:
                if (server, client) not in self._entries:
                    raise ValueError(
                        f"missing matrix entry for pair ({server!r}, {client!r})"
                    )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_strategy(
        cls,
        strategy: MatchMakingStrategy,
        nodes: Iterable[Hashable],
        port: Optional[Port] = None,
    ) -> "RendezvousMatrix":
        """Materialise the matrix of ``strategy`` over ``nodes``."""
        nodes = list(nodes)
        post_sets = {node: strategy.post_set(node, port) for node in nodes}
        query_sets = {node: strategy.query_set(node, port) for node in nodes}
        entries = {
            (server, client): post_sets[server] & query_sets[client]
            for server in nodes
            for client in nodes
        }
        return cls(nodes, entries, post_sets, query_sets, strategy.name)

    @classmethod
    def from_singleton_grid(
        cls,
        grid: Sequence[Sequence[Hashable]],
        nodes: Optional[Sequence[Hashable]] = None,
        strategy_name: str = "grid",
    ) -> "RendezvousMatrix":
        """Build a matrix from a grid of single rendezvous nodes.

        ``grid[i][j]`` is *the* rendezvous node for server ``i`` and client
        ``j`` — the representation used for the paper's printed examples,
        where "we represent such singleton sets by their single element".
        ``nodes`` defaults to ``1..n`` like the examples.  The implied
        ``P(i)`` is the union of row ``i`` and ``Q(j)`` the union of column
        ``j`` (the equality case of (M1), which the paper recommends "to
        prevent waste in message passes").
        """
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("grid must be square")
        if nodes is None:
            nodes = list(range(1, n + 1))
        if len(nodes) != n:
            raise ValueError("nodes must have one entry per grid row")
        post_sets = {
            nodes[i]: frozenset(grid[i][j] for j in range(n)) for i in range(n)
        }
        query_sets = {
            nodes[j]: frozenset(grid[i][j] for i in range(n)) for j in range(n)
        }
        entries = {
            (nodes[i], nodes[j]): frozenset({grid[i][j]})
            for i in range(n)
            for j in range(n)
        }
        return cls(nodes, entries, post_sets, query_sets, strategy_name)

    # -- basic accessors -------------------------------------------------------

    @property
    def nodes(self) -> List[Hashable]:
        """The node universe, in row/column order."""
        return list(self._nodes)

    @property
    def n(self) -> int:
        """The number of nodes."""
        return len(self._nodes)

    @property
    def strategy_name(self) -> str:
        """Name of the strategy that generated the matrix (if any)."""
        return self._strategy_name

    def entry(self, server: Hashable, client: Hashable) -> FrozenSet[Hashable]:
        """The rendezvous set ``r_ij``."""
        try:
            return self._entries[(server, client)]
        except KeyError:
            raise KeyError(f"no entry for pair ({server!r}, {client!r})") from None

    def singleton_grid(self) -> List[List[Hashable]]:
        """The matrix as a grid of single nodes (requires singleton
        entries).

        This is the representation the paper prints for Examples 1-6; it
        raises :class:`StrategyError` when any entry is not a singleton.
        """
        grid: List[List[Hashable]] = []
        for server in self._nodes:
            row = []
            for client in self._nodes:
                entry = self.entry(server, client)
                if len(entry) != 1:
                    raise StrategyError(
                        f"entry ({server!r}, {client!r}) has {len(entry)} "
                        f"rendezvous nodes; expected exactly 1"
                    )
                row.append(next(iter(entry)))
            grid.append(row)
        return grid

    # -- paper quantities --------------------------------------------------------

    def is_total(self) -> bool:
        """Whether every pair has at least one rendezvous node
        (deterministic success)."""
        return all(self._entries[(s, c)] for s in self._nodes for c in self._nodes)

    def multiplicities(self) -> Dict[Hashable, int]:
        """The ``k_i``: how many matrix entries contain each node.

        The paper counts "n² node entries, constituted by k_i ≥ 0 copies of
        each node i"; for non-singleton entries every member counts once per
        entry it appears in.
        """
        counts: Dict[Hashable, int] = {node: 0 for node in self._nodes}
        for entry in self._entries.values():
            for member in entry:
                counts[member] = counts.get(member, 0) + 1
        return counts

    def pair_cost(self, server: Hashable, client: Hashable) -> int:
        """``m(i,j) = #P(i) + #Q(j)``."""
        return len(self._post_sets[server]) + len(self._query_sets[client])

    def average_cost(self) -> float:
        """``m(n)``: the average of ``m(i,j)`` over all ``n²`` pairs (M4)."""
        total = sum(
            self.pair_cost(server, client)
            for server in self._nodes
            for client in self._nodes
        )
        return total / (self.n * self.n)

    def max_cost(self) -> int:
        """The most expensive pair's ``m(i,j)``."""
        return max(
            self.pair_cost(server, client)
            for server in self._nodes
            for client in self._nodes
        )

    def average_product(self) -> float:
        """``(1/n²)·ΣΣ #P(i)·#Q(j)`` — the quantity bounded by
        Proposition 1."""
        total = sum(
            len(self._post_sets[server]) * len(self._query_sets[client])
            for server in self._nodes
            for client in self._nodes
        )
        return total / (self.n * self.n)

    def min_redundancy(self) -> int:
        """The smallest entry size — ``f+1`` fault tolerance per
        section 2.4."""
        return min(len(entry) for entry in self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RendezvousMatrix(n={self.n}, strategy={self._strategy_name!r}, "
            f"m(n)={self.average_cost():.2f})"
        )
