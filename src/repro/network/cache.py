"""Per-node caches of posted ``(port, address)`` pairs.

Section 2.1 of the paper assumes every node has a cache "large enough to
store all (port, address) pairs associated with addresses i such that
j ∈ P(i)" and that entries are "made or updated whenever a message is received
from a server process with its address".  :class:`NodeCache` implements that
unbounded, timestamp-reconciled cache.

Lighthouse Locate (section 4) explicitly relaxes this: "too-small caches can
discard (port, address) pairs" and postings expire after ``d`` time units.
:class:`ExpiringCache` and :class:`BoundedCache` provide those behaviours.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.exceptions import CacheOverflowError
from ..core.types import Address, Port, PostRecord, freshest, freshness_key


class NodeCache:
    """Unbounded cache mapping ports to their freshest posting.

    The cache keeps one record per ``(port, server_id)`` pair so that several
    equivalent servers of the same service can be registered simultaneously
    (section 1.3: "a specific service may be offered by ... more than one
    server process").  Lookups return the freshest record.
    """

    def __init__(self) -> None:
        self._records: Dict[Port, Dict[str, PostRecord]] = {}
        self._writes = 0

    # -- mutation ----------------------------------------------------------

    def post(self, record: PostRecord) -> None:
        """Insert or refresh a posting (newer timestamps win)."""
        per_port = self._records.setdefault(record.port, {})
        existing = per_port.get(record.server_id)
        if existing is None or record.is_newer_than(existing):
            per_port[record.server_id] = record
        self._writes += 1

    def remove_port(self, port: Port) -> None:
        """Drop all postings for ``port``."""
        self._records.pop(port, None)

    def remove_server(self, port: Port, server_id: str) -> None:
        """Drop the posting of one particular server for ``port``."""
        per_port = self._records.get(port)
        if per_port is not None:
            per_port.pop(server_id, None)
            if not per_port:
                del self._records[port]

    def remove_address(self, address: Address) -> None:
        """Drop every posting that points at ``address``.

        Used when the simulator learns that the node at ``address`` crashed.
        """
        for port in list(self._records):
            per_port = self._records[port]
            for server_id in list(per_port):
                if per_port[server_id].address == address:
                    del per_port[server_id]
            if not per_port:
                del self._records[port]

    def clear(self) -> None:
        """Drop everything (e.g. the node itself crashed and restarted)."""
        self._records.clear()

    # -- queries -----------------------------------------------------------

    def lookup(self, port: Port) -> Optional[PostRecord]:
        """The freshest posting for ``port``, or ``None``."""
        per_port = self._records.get(port)
        if not per_port:
            return None
        return freshest(per_port.values())

    def lookup_all(self, port: Port) -> List[PostRecord]:
        """All postings for ``port`` (all equivalent servers), freshest
        first."""
        per_port = self._records.get(port, {})
        return sorted(per_port.values(), key=freshness_key, reverse=True)

    def __contains__(self, port: Port) -> bool:
        return port in self._records and bool(self._records[port])

    def __len__(self) -> int:
        """Number of stored ``(port, server)`` records — the paper's cache
        size measure."""
        return sum(len(per_port) for per_port in self._records.values())

    def ports(self) -> List[Port]:
        """All ports with at least one posting."""
        return [port for port, per_port in self._records.items() if per_port]

    def records(self) -> Iterator[PostRecord]:
        """Iterate over every stored record."""
        for per_port in self._records.values():
            yield from per_port.values()

    @property
    def write_count(self) -> int:
        """Number of post operations ever applied (monitoring aid)."""
        return self._writes


class BoundedCache(NodeCache):
    """A cache with at most ``capacity`` records.

    In strict mode an insertion that would exceed the capacity raises
    :class:`CacheOverflowError` — this is how tests verify the paper's cache
    size claims (e.g. size ``sqrt(n)`` suffices for the Manhattan method).
    In non-strict mode the least recently written record is evicted, turning
    the cache into the "too-small" cache of Lighthouse Locate.
    """

    def __init__(self, capacity: int, strict: bool = True) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        super().__init__()
        self._capacity = capacity
        self._strict = strict
        self._insertion_order: "OrderedDict[Tuple[Port, str], None]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of records the cache may hold."""
        return self._capacity

    def post(self, record: PostRecord) -> None:
        key = (record.port, record.server_id)
        is_new = key not in self._insertion_order
        if is_new and len(self._insertion_order) >= self._capacity:
            if self._strict:
                raise CacheOverflowError(
                    f"cache of capacity {self._capacity} cannot hold a new "
                    f"posting for {record.port}"
                )
            # Evict the oldest record (Lighthouse-style best effort).
            oldest_key, _ = self._insertion_order.popitem(last=False)
            super().remove_server(*oldest_key)
        super().post(record)
        self._insertion_order[key] = None
        self._insertion_order.move_to_end(key)

    def remove_server(self, port: Port, server_id: str) -> None:
        super().remove_server(port, server_id)
        self._insertion_order.pop((port, server_id), None)

    def remove_port(self, port: Port) -> None:
        super().remove_port(port)
        for key in [k for k in self._insertion_order if k[0] == port]:
            del self._insertion_order[key]

    def remove_address(self, address: Address) -> None:
        doomed = [
            (record.port, record.server_id)
            for record in self.records()
            if record.address == address
        ]
        super().remove_address(address)
        for key in doomed:
            self._insertion_order.pop(key, None)

    def clear(self) -> None:
        super().clear()
        self._insertion_order.clear()


class ExpiringCache(NodeCache):
    """A cache whose postings expire ``ttl`` time units after their
    timestamp.

    Implements the Lighthouse Locate rule that "a node discards a
    (port, address) posting after d time units" (section 4).  The cache is
    passive: expired entries are filtered out at lookup time against the
    clock value supplied by the caller.
    """

    def __init__(self, ttl: int) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        super().__init__()
        self._ttl = ttl

    @property
    def ttl(self) -> int:
        """Time units a posting stays valid."""
        return self._ttl

    def expire(self, now: int) -> int:
        """Remove postings older than ``now - ttl``; return how many were
        dropped."""
        dropped = 0
        for port in list(self._records):
            per_port = self._records[port]
            for server_id in list(per_port):
                if per_port[server_id].timestamp + self._ttl <= now:
                    del per_port[server_id]
                    dropped += 1
            if not per_port:
                del self._records[port]
        return dropped

    def lookup_at(self, port: Port, now: int) -> Optional[PostRecord]:
        """Freshest unexpired posting for ``port`` at time ``now``."""
        self.expire(now)
        return self.lookup(port)
