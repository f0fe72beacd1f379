"""The match-making strategy abstraction.

Section 2.1 of the paper: "For each network G = (U, E) and associated
match-making algorithm, there are total functions P, Q: U -> 2^U.  Any server
residing at node i starts its stay there by posting its (port, address) pair
at each node in P(i).  Any client residing at node j queries each node in
Q(j) for each service (port) it requires."

A :class:`MatchMakingStrategy` supplies those two functions.  Hash Locate
(section 5) generalises them to also depend on the port
(``P, Q: U × Π -> 2^U``), so both methods take an optional ``port`` argument
which topology-based strategies ignore.
"""

from __future__ import annotations

import abc
from typing import Callable, FrozenSet, Hashable, Iterable, Optional

from .types import Port


class MatchMakingStrategy(abc.ABC):
    """Abstract base class of every locate strategy.

    Subclasses implement :meth:`post_set` (the function ``P``) and
    :meth:`query_set` (the function ``Q``).  Both must be *total* on the
    universe of the network the strategy was built for.
    """

    #: Short machine-readable identifier, overridden by subclasses.
    name = "strategy"

    #: Whether P and Q depend on the port (Hash Locate style).
    port_dependent = False

    #: Whether P and Q are pure functions of their arguments.  Every strategy
    #: from the paper is; randomised experimental strategies should set this
    #: to ``False`` so engines (e.g. :class:`~repro.core.matchmaker.MatchMaker`)
    #: know their P/Q sets must not be memoized.
    deterministic = True

    @abc.abstractmethod
    def post_set(
        self, node: Hashable, port: Optional[Port] = None
    ) -> FrozenSet[Hashable]:
        """The set ``P(node)`` of nodes a server at ``node`` posts at."""

    @abc.abstractmethod
    def query_set(
        self, node: Hashable, port: Optional[Port] = None
    ) -> FrozenSet[Hashable]:
        """The set ``Q(node)`` of nodes a client at ``node`` queries."""

    def universe(self) -> Optional[FrozenSet[Hashable]]:
        """The node universe this strategy is defined on, if known.

        Strategies bound to a concrete topology return its node set; generic
        strategies (e.g. a pure hash function) may return ``None``.
        """
        return None

    def rendezvous_set(
        self,
        server_node: Hashable,
        client_node: Hashable,
        port: Optional[Port] = None,
    ) -> FrozenSet[Hashable]:
        """``P(server) ∩ Q(client)`` — the rendezvous nodes for this pair."""
        return self.post_set(server_node, port) & self.query_set(client_node, port)

    def post_cost(self, node: Hashable, port: Optional[Port] = None) -> int:
        """``#P(node)`` — addressed-node cost of one posting."""
        return len(self.post_set(node, port))

    def query_cost(self, node: Hashable, port: Optional[Port] = None) -> int:
        """``#Q(node)`` — addressed-node cost of one query."""
        return len(self.query_set(node, port))

    def pair_cost(
        self,
        server_node: Hashable,
        client_node: Hashable,
        port: Optional[Port] = None,
    ) -> int:
        """The paper's ``m(i, j) = #P(i) + #Q(j)`` (equation M3)."""
        return self.post_cost(server_node, port) + self.query_cost(client_node, port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionalStrategy(MatchMakingStrategy):
    """A strategy defined directly by two Python callables.

    Handy for tests, for the paper's hand-written example matrices and for
    quick experiments::

        strategy = FunctionalStrategy(
            post=lambda i: frozenset({i}),       # server stays put
            query=lambda j: frozenset(universe), # client broadcasts
            name="broadcast",
        )
    """

    def __init__(
        self,
        post: Callable[[Hashable], Iterable[Hashable]],
        query: Callable[[Hashable], Iterable[Hashable]],
        name: str = "functional",
        universe: Optional[Iterable[Hashable]] = None,
        deterministic: bool = True,
    ) -> None:
        self._post = post
        self._query = query
        self.name = name
        self._universe = frozenset(universe) if universe is not None else None
        self.deterministic = deterministic

    def post_set(
        self, node: Hashable, port: Optional[Port] = None
    ) -> FrozenSet[Hashable]:
        return frozenset(self._post(node))

    def query_set(
        self, node: Hashable, port: Optional[Port] = None
    ) -> FrozenSet[Hashable]:
        return frozenset(self._query(node))

    def universe(self) -> Optional[FrozenSet[Hashable]]:
        return self._universe
