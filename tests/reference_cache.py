"""The per-node posting cache ``PostingStore`` replaced, kept as its oracle.

This is the ``NodeCache`` that lived in ``repro.network.cache`` while every
node owned a private cache (plus the expiry rule of its ``ExpiringCache``
subclass, here a method taking the cutoff the store takes).  It shares no
code with the store, not even the freshness order, which it spells out
itself: ``tests/unit/test_cache.py`` drives one of these per node and one
``PostingStore`` with the same operations and requires every read to agree.
"""

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.types import Port, PostRecord


def freshness(record: PostRecord) -> Tuple[int, str]:
    """How fresh a posting is: newer timestamps win, ties go to the larger
    ``repr`` of the address."""
    return (record.timestamp, repr(record.address))


class NodeCache:
    """Unbounded cache mapping ports to their freshest posting.

    The cache keeps one record per ``(port, server_id)`` pair so that several
    equivalent servers of the same service can be registered simultaneously
    (section 1.3: "a specific service may be offered by ... more than one
    server process").  Lookups return the freshest record.
    """

    def __init__(self) -> None:
        self._records: Dict[Port, Dict[str, PostRecord]] = {}

    # -- mutation ----------------------------------------------------------

    def post(self, record: PostRecord) -> None:
        """Insert or refresh a posting (newer timestamps win)."""
        per_port = self._records.setdefault(record.port, {})
        existing = per_port.get(record.server_id)
        if existing is None or freshness(record) > freshness(existing):
            per_port[record.server_id] = record

    def remove_server(self, port: Port, server_id: str) -> None:
        """Drop the posting of one particular server for ``port``."""
        per_port = self._records.get(port)
        if per_port is not None:
            per_port.pop(server_id, None)
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
        # ``max`` keeps the first of equally fresh records.
        return max(per_port.values(), key=freshness)

    def lookup_all(self, port: Port) -> List[PostRecord]:
        """All postings for ``port`` (all equivalent servers), freshest
        first."""
        per_port = self._records.get(port, {})
        return sorted(per_port.values(), key=freshness, reverse=True)

    def __contains__(self, port: Port) -> bool:
        return port in self._records and bool(self._records[port])

    def __len__(self) -> int:
        """Number of stored ``(port, server)`` records — the paper's cache
        size measure."""
        return sum(len(per_port) for per_port in self._records.values())

    def records(self) -> Iterator[PostRecord]:
        """Iterate over every stored record."""
        for per_port in self._records.values():
            yield from per_port.values()

    def expire(self, cutoff: int) -> int:
        """Remove postings stamped ``cutoff`` or earlier; return how many
        were dropped."""
        dropped = 0
        for port in list(self._records):
            per_port = self._records[port]
            for server_id in list(per_port):
                if per_port[server_id].timestamp <= cutoff:
                    del per_port[server_id]
                    dropped += 1
            if not per_port:
                del self._records[port]
        return dropped
