"""Hash Locate (section 5).

"In Hash Locate we construct hash functions that map service names onto
network addresses.  That is, P, Q: Π -> 2^U and P = Q. ... Each server s
posts its (port, address) at the node(s) P(π) ... and each client in need for
a service at port π queries the node(s) in P(π). ... Apart from redundancy
for fault-tolerance, clients and servers need only use one network node each
in every match-making."

The module also implements the two robustness refinements the paper
describes: *replication* (the hash maps a port onto several addresses) and
*rehashing* (when a rendezvous node is down, the next hash in the sequence
provides a backup rendezvous node).
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, List, Optional, Sequence

from ..core.exceptions import StrategyError
from ..core.types import Port
from .base import UniverseStrategy, stable_digest


class HashLocateStrategy(UniverseStrategy):
    """Port-keyed rendezvous: ``P(π) = Q(π)`` = the hash replicas of π.

    Parameters
    ----------
    universe:
        The network nodes the hash function maps onto.
    replicas:
        How many distinct rendezvous nodes each port hashes to ("the hash
        function can map a service name onto many different network addresses
        for added reliability").
    salt:
        Extra string mixed into the hash; rehashing uses successive salts.
    """

    name = "hash-locate"
    port_dependent = True

    def __init__(
        self,
        universe: Iterable[Hashable],
        replicas: int = 1,
        salt: str = "",
    ) -> None:
        super().__init__(universe)
        if replicas < 1:
            raise StrategyError("replicas must be at least 1")
        if replicas > len(self._universe):
            raise StrategyError(
                f"cannot place {replicas} replicas on "
                f"{len(self._universe)} nodes"
            )
        self._replicas = replicas
        self._salt = salt
        # A stable ordering so the ring walk below is deterministic.
        self._ordered: List[Hashable] = sorted(self._universe, key=repr)

    @property
    def replicas(self) -> int:
        """Number of rendezvous nodes per port."""
        return self._replicas

    def rendezvous_nodes(self, port: Port) -> FrozenSet[Hashable]:
        """The rendezvous node(s) of ``port`` under the current hash."""
        if port is None:
            raise StrategyError(
                "Hash Locate is port-dependent: a port must be supplied"
            )
        n = len(self._ordered)
        start = stable_digest(self._salt, port.name) % n
        # Successive replicas walk the node ring from the hashed start with a
        # port-dependent stride (coprime strides would be overkill; linear
        # probing suffices to produce distinct nodes).
        chosen = []
        position = start
        while len(chosen) < self._replicas:
            candidate = self._ordered[position % n]
            if candidate not in chosen:
                chosen.append(candidate)
            position += 1
        return frozenset(chosen)

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self.rendezvous_nodes(port)

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self.rendezvous_nodes(port)

    def rehash(self, attempt: int) -> "HashLocateStrategy":
        """A backup hash function for the given retry attempt.

        "When the rendez-vous node for a particular service is down,
        rehashing can come up with another network address to act as a backup
        rendez-vous node."  Attempt 0 is the original hash.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        if attempt == 0:
            return self
        return HashLocateStrategy(
            self._universe,
            replicas=self._replicas,
            salt=f"{self._salt}|rehash-{attempt}",
        )

    def load_distribution(self, ports: Sequence[Port]) -> dict:
        """How many of ``ports`` hash onto each node.

        "Provided the hash function is well-chosen, it distributes the burden
        of the locate work over the network."  Returns a ``node -> count``
        map (nodes hit by no port are included with count 0).
        """
        counts = {node: 0 for node in self._ordered}
        for port in ports:
            for node in self.rendezvous_nodes(port):
                counts[node] += 1
        return counts


class RehashingLocator:
    """Locate with automatic rehash-on-failure over a network.

    Wraps a :class:`HashLocateStrategy` and a
    :class:`~repro.network.Network`: if every rendezvous node of the port is
    down, successive rehashes are tried (servers are assumed to "regularly
    poll their rendez-vous nodes to see if they are still alive" and to have
    posted at the backup nodes as well — we model this by posting through the
    same sequence of hashes at registration time).
    """

    def __init__(
        self,
        network,
        strategy: HashLocateStrategy,
        max_rehash_attempts: int = 3,
    ) -> None:
        if max_rehash_attempts < 0:
            raise ValueError("max_rehash_attempts must be non-negative")
        self._network = network
        self._strategy = strategy
        self._max_attempts = max_rehash_attempts

    @property
    def strategy(self) -> HashLocateStrategy:
        """The primary hash strategy."""
        return self._strategy

    def register_server(self, node: Hashable, port: Port, server_id: str = "") -> int:
        """Post the server at the rendezvous nodes of every hash attempt.

        Returns the number of nodes the posting reached.
        """
        reached = 0
        for attempt in range(self._max_attempts + 1):
            strategy = self._strategy.rehash(attempt)
            targets = strategy.rendezvous_nodes(port)
            live_targets = [t for t in targets if self._network.node_is_up(t)]
            if not live_targets:
                continue
            outcome = self._network.post(
                node, port, live_targets, server_id=server_id or f"server@{node}"
            )
            reached += len(outcome.reached)
        return reached

    def locate(self, client_node: Hashable, port: Port):
        """Query the rendezvous nodes, rehashing while they are all down.

        Returns ``(record, attempts_used)`` where ``record`` is ``None`` when
        every attempt failed.
        """
        for attempt in range(self._max_attempts + 1):
            strategy = self._strategy.rehash(attempt)
            targets = strategy.rendezvous_nodes(port)
            live_targets = [t for t in targets if self._network.node_is_up(t)]
            if not live_targets:
                continue
            outcome = self._network.query(client_node, port, live_targets)
            if outcome.found:
                return outcome.freshest(), attempt
        return None, self._max_attempts
