"""Client processes.

A client process asks the system to perform operations on services named by
ports; it neither knows nor cares where the server processes are — that is
the whole point of match-making.  The client keeps a small private cache of
addresses it learned from earlier locates ("entries are made or updated ...
when a reply from a locate operation is received", section 2.1) and falls
back to a fresh locate when a cached address turns out to be stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from ..core.types import Address, Port
from .process import Process


@dataclass
class ClientStats:
    """Counters of a client's interactions with the system."""

    requests: int = 0
    locates: int = 0
    cache_hits: int = 0
    stale_addresses: int = 0
    failures: int = 0


class ClientProcess(Process):
    """A process that issues requests to services."""

    def __init__(self, node: Hashable, name: str = "") -> None:
        super().__init__(node, name or f"client@{node}")
        self._address_cache: Dict[Port, Address] = {}
        #: The client's interaction counters.
        self.stats = ClientStats()

    # -- private address cache ---------------------------------------------------

    def cached_address(self, port: Port) -> Optional[Address]:
        """The client's privately cached address for ``port``, if any."""
        return self._address_cache.get(port)

    def remember_address(self, port: Port, address: Address) -> None:
        """Cache an address learned from a locate reply."""
        self._address_cache[port] = address

    def forget_address(self, port: Port) -> None:
        """Drop a (presumably stale) cached address."""
        self._address_cache.pop(port, None)
