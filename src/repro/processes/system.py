"""The distributed system facade: processes + match-making + network.

:class:`DistributedSystem` is the Amoeba-style substrate the paper's
introduction motivates: mobile server and client processes on a pool of
processors, a service model where "every job in the system is executed by a
dynamic network of servers executing each other's requests", and a
distributed name server (any :class:`~repro.core.strategy.MatchMakingStrategy`)
matching the two.

The request path is:

1. the client consults its private address cache; on a miss (or after a
   stale address) it runs a locate through the match-maker;
2. the request payload is routed point-to-point to the located address;
3. if no accepting server is at that address any more (it migrated, died or
   stopped accepting), the address is stale: the client forgets it, re-runs
   the locate and retries — timestamped postings make the freshest address
   win (section 2.1, assumption 3);
4. the reply is routed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from ..core.exceptions import (
    NoRouteError,
    NodeDownError,
    ServiceError,
    ServiceNotFoundError,
)
from ..core.matchmaker import MatchMaker, ServerRegistration
from ..core.strategy import MatchMakingStrategy
from ..core.types import MatchResult, Port
from ..network.simulator import Network
from .client import ClientProcess
from .server import RequestHandler, ServerProcess
from .service import ServiceDirectory


class RequestOutcome(NamedTuple):
    """Result of one client request through the system.

    ``locate_hops`` (query + reply) and ``payload_hops`` are what the
    request spent, summed from the hop counts the match-maker and the
    network returned for each attempt — failed and retried requests
    included — so callers never re-read them from the network's counters.

    An immutable tuple record, like the ``MatchResult`` and
    ``QueryOutcome`` under it: one is built per request, and a tuple is
    filled in one step where a frozen dataclass pays one
    ``object.__setattr__`` per field.
    """

    ok: bool
    reply: object = None
    server: Optional[ServerProcess] = None
    locates: int = 0
    retries: int = 0
    used_cached_address: bool = False
    error: str = ""
    locate_hops: int = 0
    payload_hops: int = 0


@dataclass
class SystemStats:
    """System-wide counters."""

    requests: int = 0
    successful_requests: int = 0
    locates: int = 0
    stale_addresses: int = 0
    migrations: int = 0
    recoveries: int = 0
    invalidation_storms: int = 0
    reposts: int = 0


class DistributedSystem:
    """Mobile processes plus a pluggable distributed name server."""

    def __init__(
        self,
        network: Network,
        strategy: MatchMakingStrategy,
        delivery_mode: Optional[str] = None,
        max_retries: int = 2,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._network = network
        self._matchmaker = MatchMaker(network, strategy, delivery_mode=delivery_mode)
        self._directory = ServiceDirectory()
        self._servers: Dict[int, ServerProcess] = {}
        self._clients: Dict[int, ClientProcess] = {}
        self._registrations: Dict[int, ServerRegistration] = {}
        # Location index: (node, port) -> server processes, so the hot
        # request path does not scan every server ever created.
        self._by_location: Dict[Tuple[Hashable, Port], List[ServerProcess]] = {}
        self._max_retries = max_retries
        self._stats = SystemStats()

    # -- accessors -----------------------------------------------------------

    @property
    def network(self) -> Network:
        """The underlying network simulator."""
        return self._network

    @property
    def matchmaker(self) -> MatchMaker:
        """The match-making engine (name server)."""
        return self._matchmaker

    @property
    def directory(self) -> ServiceDirectory:
        """The directory of known services."""
        return self._directory

    @property
    def stats(self) -> SystemStats:
        """System-wide counters."""
        return self._stats

    def servers(self) -> List[ServerProcess]:
        """All server processes (including dead ones)."""
        return list(self._servers.values())

    def clients(self) -> List[ClientProcess]:
        """All client processes."""
        return list(self._clients.values())

    # -- process management -------------------------------------------------------

    def create_server(
        self,
        node: Hashable,
        port: Port,
        handler: Optional[RequestHandler] = None,
        name: str = "",
    ) -> ServerProcess:
        """Start a server process at ``node`` and advertise it.

        The server's ``(port, address)`` is posted at ``P(node)`` through the
        match-maker, making it locatable immediately.
        """
        if not self._network.node_is_up(node):
            raise NodeDownError(node)
        service = self._directory.get_or_create(port, handler)
        server = ServerProcess(node, port, handler or service.handler, name=name)
        service.attach(server)
        self._servers[server.pid] = server
        self._index_add(server)
        registration = self._matchmaker.register_server(
            node, port, server_id=server.name
        )
        self._registrations[server.pid] = registration
        return server

    def create_client(self, node: Hashable, name: str = "") -> ClientProcess:
        """Start a client process at ``node``."""
        if not self._network.node_is_up(node):
            raise NodeDownError(node)
        client = ClientProcess(node, name=name)
        self._clients[client.pid] = client
        return client

    def retire_server(self, server: ServerProcess) -> None:
        """Stop a server and withdraw its postings."""
        registration = self._registrations.pop(server.pid, None)
        if registration is not None and self._network.node_is_up(server.node):
            self._matchmaker.deregister_server(registration)
        self._index_remove(server)
        server.kill()

    def migrate_server(self, server: ServerProcess, new_node: Hashable) -> None:
        """Move a server process to another node and re-advertise it.

        Old postings are withdrawn when reachable; in any case the fresh
        posting carries a newer timestamp, so rendezvous nodes prefer it.
        """
        server.require_alive()
        if not self._network.node_is_up(new_node):
            raise NodeDownError(new_node)
        registration = self._registrations.get(server.pid)
        if registration is not None and self._network.node_is_up(server.node):
            self._matchmaker.deregister_server(registration)
        self._index_remove(server)
        server._move_to(new_node)
        self._index_add(server)
        self._registrations[server.pid] = self._matchmaker.register_server(
            new_node, server.port, server_id=server.name
        )
        self._stats.migrations += 1

    def crash_node(self, node: Hashable) -> None:
        """Crash a node: the node's cache is lost and resident processes
        die."""
        self._network.crash_node(node)
        for server in self._servers.values():
            if server.node == node and server.alive:
                server.kill()
                self._index_remove(server)
                self._registrations.pop(server.pid, None)
        for client in self._clients.values():
            if client.node == node and client.alive:
                client.kill()

    def recover_node(self, node: Hashable) -> None:
        """Bring a crashed node back up (with an empty posting cache).

        Processes that died in the crash stay dead — a recovered processor
        comes back empty; churn models re-create servers explicitly.
        """
        self._network.recover_node(node)
        self._stats.recoveries += 1

    # -- churn / maintenance hooks ------------------------------------------------

    def invalidate_caches(self, nodes: Optional[Iterable[Hashable]] = None) -> int:
        """Drop the posting caches of ``nodes`` (default: every up node).

        Models an invalidation storm: rendezvous information is lost but the
        nodes stay up, so subsequent locates miss until servers re-post.
        Returns the number of caches cleared.
        """
        cleared = 0
        targets = list(nodes) if nodes is not None else self._network.node_ids()
        for node_id in targets:
            if self._network.node_is_up(node_id):
                self._network.postings.clear(node_id)
                cleared += 1
        self._stats.invalidation_storms += 1
        return cleared

    def refresh_server(self, server: ServerProcess) -> None:
        """Re-post a live server's ``(port, address)`` at ``P(node)``.

        The operational analogue of servers re-advertising after a cache
        invalidation; the fresh posting carries a newer timestamp, so it wins
        at every rendezvous node (section 2.1, assumption 3).
        """
        server.require_alive()
        self._registrations[server.pid] = self._matchmaker.register_server(
            server.node, server.port, server_id=server.name
        )
        self._stats.reposts += 1

    def servers_for(self, port: Port) -> List[ServerProcess]:
        """All live, accepting servers currently offering ``port``."""
        return [
            server
            for server in self._servers.values()
            if server.port == port and server.accepting
        ]

    # -- the request path -----------------------------------------------------------

    def _index_add(self, server: ServerProcess) -> None:
        self._by_location.setdefault((server.node, server.port), []).append(server)

    def _index_remove(self, server: ServerProcess) -> None:
        bucket = self._by_location.get((server.node, server.port))
        if bucket is not None and server in bucket:
            bucket.remove(server)
            if not bucket:
                del self._by_location[(server.node, server.port)]

    def _accepting_server_at(
        self, node: Hashable, port: Port
    ) -> Optional[ServerProcess]:
        for server in self._by_location.get((node, port), ()):
            if server.accepting:
                return server
        return None

    def _locate(self, client: ClientProcess, port: Port) -> MatchResult:
        self._stats.locates += 1
        client.stats.locates += 1
        return self._matchmaker.locate(client.node, port)

    def request(
        self, client: ClientProcess, port: Port, payload: object
    ) -> RequestOutcome:
        """Issue one request from ``client`` to the service at ``port``.

        Returns a :class:`RequestOutcome`; ``ok`` is ``False`` when the
        service could not be located or reached within the retry budget.
        """
        client.require_alive()
        stats = self._stats
        stats.requests += 1
        client.stats.requests += 1

        locates = retries = locate_hops = payload_hops = 0
        address = client.cached_address(port)
        used_cache = address is not None
        ok = False
        reply = served_by = None
        error = ""

        for attempt in range(self._max_retries + 1):
            if address is None:
                located = self._locate(client, port)
                locates += 1
                locate_hops += located.query_messages + located.reply_messages
                if not located.found:
                    error = f"no server found for {port}"
                    break
                address = located.address
                client.remember_address(port, address)

            target_node = address.node
            server = (
                self._accepting_server_at(target_node, port)
                if self._network.node_is_up(target_node)
                else None
            )
            if server is None:
                # Stale address: the server migrated, died, or its host is
                # down.  Forget it and locate again.
                client.forget_address(port)
                client.stats.stale_addresses += 1
                stats.stale_addresses += 1
                address = None
                retries += 1
                continue

            try:
                payload_hops += self._network.send_payload(
                    client.node, target_node
                )
                answer = server.handle(payload)
                payload_hops += self._network.send_payload(
                    target_node, client.node
                )
            except (NoRouteError, NodeDownError) as exc:
                client.forget_address(port)
                address = None
                retries += 1
                if attempt == self._max_retries:
                    error = str(exc)
                    break
                continue

            ok, reply, served_by = True, answer, server
            break
        else:
            error = f"retry budget exhausted for {port}"

        # Every exit: settle the counters, report what was spent.
        if ok:
            stats.successful_requests += 1
        else:
            client.stats.failures += 1
        # A cached address only *counts* as a hit once it is validated: the
        # request must complete without any locate — the exact predicate
        # WorkloadMetrics.observe_request uses, so per-client counters sum
        # to the workload-level counter.
        if used_cache and locates == 0:
            client.stats.cache_hits += 1
        # Positional, in RequestOutcome field order.
        return RequestOutcome(
            ok, reply, served_by, locates, retries, used_cache, error,
            locate_hops, payload_hops,
        )

    def request_batch(
        self, operations: Iterable[Tuple[ClientProcess, Port, object]]
    ) -> List[RequestOutcome]:
        """Run a batch of ``(client, port, payload)`` requests back-to-back.

        A convenience entry point for callers that want many operations per
        call without per-request instrumentation (callers that meter each
        request, like the workload driver, call :meth:`request` directly).
        The returned outcomes line up with the input order.
        """
        return [
            self.request(client, port, payload)
            for client, port, payload in operations
        ]

    def request_or_raise(
        self, client: ClientProcess, port: Port, payload: object
    ) -> object:
        """Like :meth:`request` but raise :class:`ServiceNotFoundError` /
        :class:`ServiceError` on failure and return the reply directly."""
        outcome = self.request(client, port, payload)
        if outcome.ok:
            return outcome.reply
        if "no server found" in outcome.error:
            raise ServiceNotFoundError(port)
        raise ServiceError(outcome.error)
