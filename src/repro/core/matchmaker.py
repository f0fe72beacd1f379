"""The match-making engine: running a strategy on a simulated network.

:class:`MatchMaker` is the operational counterpart of the theory in
:mod:`repro.core.rendezvous`: given a :class:`~repro.network.Network` and a
:class:`~repro.core.strategy.MatchMakingStrategy` it performs the Shotgun
Locate protocol of section 1.5 —

1. a server process at node ``i`` posts its ``(port, address)`` at every node
   of ``P(i)``;
2. a client at node ``j`` queries every node of ``Q(j)``;
3. every node of ``P(i) ∩ Q(j)`` that received both replies with the server's
   address —

while the network charges every hop.  The engine reports both hop counts and
addressed-node counts so experiments can compare measured behaviour against
the complete-network theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..network.simulator import Network
from .strategy import MatchMakingStrategy
from .types import MatchResult, Port, freshest


@dataclass(frozen=True)
class ServerRegistration:
    """Book-keeping record for one registered server."""

    server_id: str
    port: Port
    node: Hashable
    posted_at: Tuple[Hashable, ...]
    post_hops: int


class MatchMaker:
    """Runs Shotgun/Hash/topology locate strategies on a network.

    Parameters
    ----------
    network:
        The simulated network to run on.
    strategy:
        The strategy supplying ``P`` and ``Q``.
    delivery_mode:
        Override of the network's default delivery mode for posts/queries
        (``"ideal"`` reproduces the complete-network accounting of the
        theory; ``"unicast"``/``"multicast"`` include routing overhead).

    The strategy's P/Q sets are cached per node (and per port, for
    port-dependent strategies): P and Q are total *functions* (section 2.1),
    so repeated posts/locates for the same node need not re-run the
    strategy.  A strategy whose ``deterministic`` attribute is false is
    asked every time.
    """

    def __init__(
        self,
        network: Network,
        strategy: MatchMakingStrategy,
        delivery_mode: Optional[str] = None,
    ) -> None:
        self._network = network
        self._strategy = strategy
        self._mode = delivery_mode
        self._server_counter = itertools.count()
        self._memoize = getattr(strategy, "deterministic", True)
        self._post_cache: Dict[Tuple[Hashable, Optional[Port]], frozenset] = {}
        self._query_cache: Dict[Tuple[Hashable, Optional[Port]], frozenset] = {}
        self._pq_hits = 0
        self._pq_misses = 0

    @property
    def network(self) -> Network:
        """The underlying network."""
        return self._network

    # -- memoized P/Q ----------------------------------------------------------

    def _memoized(self, cache: Dict, compute, node: Hashable, port: Optional[Port]):
        """``compute(node, port)`` — one of the strategy's two set functions
        — through ``cache`` (bypassed for non-deterministic strategies)."""
        if not self._memoize:
            return compute(node, port)
        key = (node, port if self._strategy.port_dependent else None)
        cached = cache.get(key)
        if cached is not None:
            self._pq_hits += 1
            return cached
        self._pq_misses += 1
        result = cache[key] = compute(node, port)
        return result

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> frozenset:
        """``P(node)``, served from the memo cache when possible."""
        return self._memoized(
            self._post_cache, self._strategy.post_set, node, port
        )

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> frozenset:
        """``Q(node)``, served from the memo cache when possible."""
        return self._memoized(
            self._query_cache, self._strategy.query_set, node, port
        )

    def pq_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the P/Q memo cache."""
        return {
            "hits": self._pq_hits,
            "misses": self._pq_misses,
            "entries": len(self._post_cache) + len(self._query_cache),
        }

    # -- server side -----------------------------------------------------------

    def register_server(
        self, node: Hashable, port: Port, server_id: Optional[str] = None
    ) -> ServerRegistration:
        """Post a server's ``(port, address)`` at every node of ``P(node)``.

        Returns the registration record (including how many hops the posting
        cost).  Posting to unreachable/crashed rendezvous nodes silently
        skips them, exactly as a real network would.
        """
        server_id = server_id or f"server-{next(self._server_counter)}@{node}"
        targets = self.post_set(node, port)
        outcome = self._network.post(
            node, port, targets, server_id=server_id, mode=self._mode
        )
        return ServerRegistration(
            server_id=server_id,
            port=port,
            node=node,
            posted_at=tuple(sorted(outcome.reached, key=repr)),
            post_hops=outcome.hops,
        )

    def deregister_server(self, registration: ServerRegistration) -> None:
        """Withdraw a server's postings (the server stops offering the
        service).

        When the server's node is down the unpost is skipped instead of
        raising: nothing can originate from a dead node, and any posting
        left behind is superseded by fresher timestamps (section 2.1,
        assumption 3).  This mirrors
        :meth:`~repro.processes.system.DistributedSystem.migrate_server`'s
        guard and makes deregister/migrate safe during fault churn.
        """
        if self._network.node_is_up(registration.node):
            self._network.unpost(
                registration.node,
                registration.port,
                registration.posted_at,
                server_id=registration.server_id,
                mode=self._mode,
            )

    def migrate_server(
        self, registration: ServerRegistration, new_node: Hashable
    ) -> ServerRegistration:
        """Move a server to ``new_node``: withdraw old postings, post anew.

        Mirrors the paper's description of migration as "destroying the
        server process in one host and creating another one in a different
        host at the same time" (section 1.3).
        """
        self.deregister_server(registration)
        return self.register_server(
            new_node, registration.port, server_id=registration.server_id
        )

    # -- client side ------------------------------------------------------------

    def locate(self, client_node: Hashable, port: Port) -> MatchResult:
        """Query every node of ``Q(client_node)`` for ``port``.

        Returns a :class:`~repro.core.types.MatchResult`; ``found`` is False
        when no queried node knew an address (e.g. no server registered, or
        all rendezvous nodes crashed).  ``query_messages``/``reply_messages``
        are the hop counts the network returned for this very query — the
        one place a caller learns what the locate cost.
        """
        tracer = self._network.tracer
        locate_span = None
        if tracer is not None:
            locate_span = tracer.begin("locate", nodes_queried=0)
        targets = self.query_set(client_node, port)
        if tracer is not None:
            # The rendezvous resolution itself: Q(j) materialized against
            # the strategy (memoized after first use).
            tracer.event("rendezvous-resolve", nodes=len(targets))
        outcome = self._network.query(client_node, port, targets, mode=self._mode)
        best = freshest(outcome.records)
        if tracer is not None:
            tracer.end(
                locate_span,
                nodes_queried=len(targets),
                found=best is not None,
                hops=outcome.query_hops + outcome.reply_hops,
            )
        # Positional, in MatchResult field order; a locate posts nothing.
        return MatchResult(
            best is not None,
            best.address if best else None,
            outcome.responding_nodes,
            0, outcome.query_hops, outcome.reply_hops,  # post/query/reply hops
            0, len(targets),  # nodes posted / queried
        )

    # -- whole match-making instances ----------------------------------------------

    def match_instance(
        self, server_node: Hashable, client_node: Hashable, port: Port
    ) -> MatchResult:
        """Measure one complete match-making instance for a pair of nodes.

        Registers a throw-away server at ``server_node``, lets a client at
        ``client_node`` locate it, and reports the combined costs — the
        operational analogue of the paper's ``m(i, j)``.  The temporary
        posting is withdrawn afterwards so repeated calls are independent,
        and the withdrawal traffic is *not* charged to the returned result.
        """
        registration = self.register_server(server_node, port)
        located = self.locate(client_node, port)
        result = MatchResult(
            found=located.found,
            address=located.address,
            rendezvous_nodes=located.rendezvous_nodes,
            post_messages=registration.post_hops,
            query_messages=located.query_messages,
            reply_messages=located.reply_messages,
            nodes_posted=len(self.post_set(server_node, port)),
            nodes_queried=located.nodes_queried,
        )
        # Clean up without charging the instance (snapshot/restore counters).
        snapshot = self._network.stats.snapshot()
        self.deregister_server(registration)
        self._network.stats.restore(snapshot)
        return result
