"""Locality-aware (scoped) hash locate.

Sections 3.5 and 5 of the paper sketch a generalisation of Hash Locate for
hierarchical internets: "If we are dealing with a very large network, where
it is advantageous to have servers and clients look for nearby matches, we
can hash a service onto nodes in neighborhoods.  A neighborhood can be a
local network, but also the network connecting the local networks, and so
on.  Therefore, such functions can be used to implement the idea of certain
services being local and others being more global ... thus balancing the
processing load more evenly over the hosts at each level of the network
hierarchy."  The Amoeba passage makes the use case concrete: an "Operating
System Service" is meaningful only within one host, a file service within a
local-area network, and only a few services are truly global.

:class:`ScopedHashStrategy` implements that idea on a
:class:`~repro.topologies.hierarchical.HierarchicalTopology`: every port is
assigned a *scope level* (1 = the node's basic cluster, up to the topology's
top level); the port is hashed onto nodes *of the requester's level-`scope`
network*, so

* clients only ever find servers within their own scope-level network,
* the rendezvous load of local services stays inside the local networks, and
* the cost of a match for a level-`s` service is O(replicas), independent of
  the total network size.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional

from ..core.exceptions import StrategyError
from ..core.strategy import MatchMakingStrategy
from ..core.types import Port
from ..topologies.hierarchical import HierarchicalTopology, HierNode
from .base import stable_digest


class ScopedHashStrategy(MatchMakingStrategy):
    """Hash Locate with per-port visibility scopes on a hierarchy.

    Parameters
    ----------
    topology:
        The hierarchical network.
    scopes:
        Mapping ``port -> scope level``; level 1 restricts the service to the
        requester's basic cluster, the topology's top level makes it global.
    default_scope:
        Scope used for ports absent from ``scopes``; defaults to the top
        level (globally visible), matching the paper's "only few services
        being truly global" as the safe fallback.
    replicas:
        Number of rendezvous nodes per (port, neighbourhood), for
        fault tolerance.
    """

    name = "scoped-hash"
    port_dependent = True

    def __init__(
        self,
        topology: HierarchicalTopology,
        scopes: Optional[Dict[Port, int]] = None,
        default_scope: Optional[int] = None,
        replicas: int = 1,
    ) -> None:
        if not isinstance(topology, HierarchicalTopology):
            raise StrategyError(
                "ScopedHashStrategy requires a HierarchicalTopology, got "
                f"{type(topology).__name__}"
            )
        if replicas < 1:
            raise StrategyError("replicas must be at least 1")
        self._topology = topology
        self._scopes = dict(scopes or {})
        self._default_scope = (
            topology.levels if default_scope is None else default_scope
        )
        for port, level in list(self._scopes.items()) + [
            (None, self._default_scope)
        ]:
            if not 1 <= level <= topology.levels:
                raise StrategyError(
                    f"scope level {level} out of range 1..{topology.levels}"
                )
        self._replicas = replicas

    # -- scope handling ---------------------------------------------------------

    @property
    def topology(self) -> HierarchicalTopology:
        """The hierarchy this strategy is defined on."""
        return self._topology

    @property
    def replicas(self) -> int:
        """Rendezvous nodes per (port, neighbourhood)."""
        return self._replicas

    def scope_of(self, port: Optional[Port]) -> int:
        """The scope level of ``port`` (the default scope when unknown)."""
        if port is None:
            raise StrategyError(
                "Scoped Hash Locate is port-dependent: a port must be supplied"
            )
        return self._scopes.get(port, self._default_scope)

    def set_scope(self, port: Port, level: int) -> None:
        """Register or change a port's visibility scope."""
        if not 1 <= level <= self._topology.levels:
            raise StrategyError(
                f"scope level {level} out of range 1..{self._topology.levels}"
            )
        self._scopes[port] = level

    def neighbourhood(self, node: HierNode, port: Port) -> List[HierNode]:
        """All basic nodes of the level-``scope(port)`` network containing
        ``node``.

        This is the candidate set the port is hashed onto for requests
        originating at ``node``.
        """
        scope = self.scope_of(port)
        prefix = self._topology.cluster_prefix(node, scope)
        return self._topology.subtree_leaves(prefix)

    def rendezvous_nodes(self, node: HierNode, port: Port) -> FrozenSet[HierNode]:
        """The hash-selected rendezvous nodes for ``port`` as seen from
        ``node``."""
        candidates = sorted(self.neighbourhood(node, port), key=repr)
        if self._replicas > len(candidates):
            raise StrategyError(
                f"cannot place {self._replicas} replicas in a neighbourhood "
                f"of {len(candidates)} nodes"
            )
        # Hash on the port name and the neighbourhood identity so that the
        # same port maps consistently for every member of one neighbourhood
        # but independently across neighbourhoods (load spreading).
        scope = self.scope_of(port)
        prefix = self._topology.cluster_prefix(node, scope)
        start = stable_digest(port.name, repr(prefix)) % len(candidates)
        chosen = []
        position = start
        while len(chosen) < self._replicas:
            candidate = candidates[position % len(candidates)]
            if candidate not in chosen:
                chosen.append(candidate)
            position += 1
        return frozenset(chosen)

    # -- the strategy interface --------------------------------------------------

    def universe(self) -> FrozenSet[Hashable]:
        return self._topology.graph.node_set

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        if port is None:
            raise StrategyError(
                "Scoped Hash Locate is port-dependent: a port must be supplied"
            )
        return self.rendezvous_nodes(node, port)

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        return self.post_set(node, port)

    def same_neighbourhood(self, a: HierNode, b: HierNode, port: Port) -> bool:
        """Whether two nodes share the port's scope-level network.

        A client can only locate servers in its own neighbourhood — locality
        is a *feature* here, not a failure: the paper's local services are
        only meaningful to local clients.
        """
        scope = self.scope_of(port)
        return self._topology.cluster_prefix(a, scope) == self._topology.cluster_prefix(
            b, scope
        )

    def load_distribution(
        self, ports: Iterable[Port], per_node_requesters: Optional[int] = None
    ) -> Dict[HierNode, int]:
        """How many (port, neighbourhood) rendezvous duties land on each
        node.

        Counts, for every port and every neighbourhood at that port's scope,
        the nodes chosen as rendezvous — the quantity the paper wants "more
        or less evenly" distributed "over the hosts at each level of the
        network hierarchy".
        """
        counts: Dict[HierNode, int] = {node: 0 for node in self._topology.nodes()}
        for port in ports:
            scope = self.scope_of(port)
            seen_prefixes = set()
            for node in self._topology.nodes():
                prefix = self._topology.cluster_prefix(node, scope)
                if prefix in seen_prefixes:
                    continue
                seen_prefixes.add(prefix)
                for chosen in sorted(
                    self.rendezvous_nodes(node, port), key=repr
                ):
                    counts[chosen] += 1
        return counts

    def _require_member(self, node: Hashable) -> None:
        if node not in self._topology.graph:
            raise StrategyError(f"{self.name}: unknown node {node!r}")
