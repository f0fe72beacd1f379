"""Network nodes.

A node hosts a cache of ``(port, address)`` postings and may host any number
of processes (servers and clients).  The node knows nothing about strategies:
it only stores postings delivered to it and answers queries against its cache,
which is exactly the behaviour assumed of rendezvous nodes in section 2.1.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from ..core.exceptions import NodeDownError
from ..core.types import Address, Port, PostRecord
from .cache import NodeCache


class Node:
    """A processor in the network.

    Parameters
    ----------
    node_id:
        The identifier of this node in the communication graph.
    cache:
        The posting cache to use; defaults to an unbounded
        :class:`~repro.network.cache.NodeCache`.
    """

    def __init__(self, node_id: Hashable, cache: Optional[NodeCache] = None) -> None:
        self._id = node_id
        self._cache = cache if cache is not None else NodeCache()
        self._alive = True

    # -- identity / liveness ------------------------------------------------

    @property
    def node_id(self) -> Hashable:
        """This node's identifier."""
        return self._id

    @property
    def address(self) -> Address:
        """This node's address."""
        return Address(self._id)

    @property
    def alive(self) -> bool:
        """Whether the node is up."""
        return self._alive

    def crash(self) -> None:
        """Crash the node.  Its cache contents are lost."""
        self._alive = False
        self._cache.clear()

    def recover(self) -> None:
        """Bring a crashed node back up with an empty cache."""
        self._alive = True

    def _require_alive(self) -> None:
        if not self._alive:
            raise NodeDownError(self._id)

    # -- cache operations ----------------------------------------------------

    @property
    def cache(self) -> NodeCache:
        """The node's posting cache."""
        return self._cache

    def replace_cache(self, cache: NodeCache) -> None:
        """Install a different cache implementation (bounded, expiring, ...)."""
        self._cache = cache

    def accept_post(self, record: PostRecord) -> None:
        """Store a posting delivered to this node."""
        self._require_alive()
        self._cache.post(record)

    def answer_query(self, port: Port) -> Optional[PostRecord]:
        """Answer a query for ``port`` from the local cache."""
        if not self._alive:  # inline: once per queried node of every locate
            raise NodeDownError(self._id)
        return self._cache.lookup(port)

    def answer_query_all(self, port: Port) -> List[PostRecord]:
        """All known postings for ``port`` (one per equivalent server)."""
        self._require_alive()
        return self._cache.lookup_all(port)

    def forget_port(self, port: Port) -> None:
        """Drop all postings for ``port`` (server withdrew the service)."""
        self._require_alive()
        self._cache.remove_port(port)

    def forget_server(self, port: Port, server_id: str) -> None:
        """Drop the posting of a particular server for ``port``."""
        self._require_alive()
        self._cache.remove_server(port, server_id)

    def cache_size(self) -> int:
        """Number of records currently stored — the paper's cache-size
        measure."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self._alive else "down"
        return f"Node({self._id!r}, {status}, cache={self.cache_size()})"
