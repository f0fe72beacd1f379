"""The network's one store of posted ``(port, address)`` pairs.

Section 2.1 of the paper assumes every node has a cache "large enough to
store all (port, address) pairs associated with addresses i such that
j ∈ P(i)" and that entries are "made or updated whenever a message is received
from a server process with its address".  A match is then ``P(i) ∩ Q(j) ≠ ∅``:
some node queried by the client holds a posting of the server.

:class:`PostingStore` keeps all of those unbounded, timestamp-reconciled
caches as one incidence structure with two keys onto the same per-server
dicts:

``node → port → {server_id: record}``
    one node's cache, in that node's own insertion order (what the paper's
    cache-size measure counts);
``port → node → {server_id: record}``
    :meth:`PostingStore.holders` — the nodes currently holding a posting
    for a port, so a locate is ``holders(port) ∩ reached`` instead of a
    lookup at every node of ``Q(j)``.

The store is the only writer: every mutation — a post, a withdrawal, a
node's crash, Lighthouse Locate's expiry of trails older than ``d`` time
units (section 4) — goes through a method here that keeps both keys in
step, and a slice that becomes empty leaves both at once, so
``holders(port)`` is exactly the set of nodes with a non-empty slice.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional

from ..core.types import Port, PostRecord, freshest

#: One node's postings for one port, by server (several equivalent servers
#: of a service may be registered at once — section 1.3).
Slice = Dict[str, PostRecord]

#: What a missing key reads as (never written to).
_EMPTY: Mapping = {}


class PostingStore:
    """Every node's posting cache, also indexed by port.

    ``nodes`` fixes the node set; an operation on any other node raises
    ``KeyError`` (the network checks identifiers before it gets here).
    """

    def __init__(self, nodes: Iterable[Hashable]) -> None:
        self._by_node: Dict[Hashable, Dict[Port, Slice]] = {
            node: {} for node in nodes
        }
        self._by_port: Dict[Port, Dict[Hashable, Slice]] = {}

    # -- mutation ----------------------------------------------------------

    def post(self, record: PostRecord, nodes: Iterable[Hashable]) -> None:
        """Insert or refresh ``record`` at each of ``nodes`` (newer
        timestamps win)."""
        port = record.port
        server_id = record.server_id
        by_node = self._by_node
        for node in nodes:
            cache = by_node[node]
            held = cache.get(port)
            if held is None:
                held = cache[port] = {}
                self._by_port.setdefault(port, {})[node] = held
            existing = held.get(server_id)
            if existing is None or record.is_newer_than(existing):
                held[server_id] = record

    def forget_server(
        self, port: Port, server_id: str, nodes: Iterable[Hashable]
    ) -> None:
        """Drop the posting of one particular server for ``port`` at each
        of ``nodes``."""
        by_node = self._by_node
        for node in nodes:
            held = by_node[node].get(port)
            if held is not None:
                held.pop(server_id, None)
                if not held:
                    self._drop_slice(node, port)

    def expire(self, node: Hashable, cutoff: int) -> int:
        """Drop ``node``'s postings stamped ``cutoff`` or earlier; return
        how many went."""
        return self._discard(node, lambda record: record.timestamp <= cutoff)

    def clear(self, node: Hashable) -> None:
        """Drop everything ``node`` holds (it crashed, or was invalidated)."""
        for port in list(self._by_node[node]):
            self._drop_slice(node, port)

    def reset(self) -> None:
        """Empty every node's cache."""
        for cache in self._by_node.values():
            cache.clear()
        self._by_port.clear()

    def _drop_slice(self, node: Hashable, port: Port) -> None:
        """Take ``node``'s slice for ``port`` out of both keys."""
        del self._by_node[node][port]
        holders = self._by_port[port]
        del holders[node]
        if not holders:
            del self._by_port[port]

    def _discard(
        self, node: Hashable, doomed: Callable[[PostRecord], bool]
    ) -> int:
        dropped = 0
        cache = self._by_node[node]
        for port in list(cache):
            held = cache[port]
            for server_id in [sid for sid, rec in held.items() if doomed(rec)]:
                del held[server_id]
                dropped += 1
            if not held:
                self._drop_slice(node, port)
        return dropped

    # -- queries -----------------------------------------------------------

    def holders(self, port: Port) -> Mapping[Hashable, Slice]:
        """The nodes holding a posting for ``port``, each with its
        (non-empty) slice.  Read-only by contract: it is the live index."""
        return self._by_port.get(port, _EMPTY)

    def lookup(self, node: Hashable, port: Port) -> Optional[PostRecord]:
        """``node``'s freshest posting for ``port``, or ``None``."""
        return freshest(self._by_node[node].get(port, _EMPTY).values())

    def size(self, node: Hashable) -> int:
        """Number of ``(port, server)`` records ``node`` stores — the
        paper's cache size measure."""
        return sum(len(held) for held in self._by_node[node].values())
