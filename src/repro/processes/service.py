"""Services: ports plus the set of equivalent server processes offering
them.

"A specific service may be offered by one, or by more than one server
process.  In the latter case, we assume that all server processes that belong
to one service are equivalent: a client sees the same result, regardless
which server process carries out its request" (section 1.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.exceptions import ServiceError
from ..core.types import Port
from .server import RequestHandler, ServerProcess


class Service:
    """A named service: one port, any number of equivalent servers."""

    def __init__(self, port: Port, handler: Optional[RequestHandler] = None) -> None:
        self._port = port
        self._handler = handler
        self._servers: List[ServerProcess] = []

    @property
    def port(self) -> Port:
        """The service's port."""
        return self._port

    @property
    def handler(self) -> Optional[RequestHandler]:
        """The shared request handler new servers of this service use."""
        return self._handler

    @property
    def servers(self) -> List[ServerProcess]:
        """All server processes ever attached (including dead ones)."""
        return list(self._servers)

    def live_servers(self) -> List[ServerProcess]:
        """Servers that are alive."""
        return [server for server in self._servers if server.alive]

    def attach(self, server: ServerProcess) -> None:
        """Attach an existing server process to this service."""
        if server.port != self._port:
            raise ServiceError(
                f"server serves {server.port}, not this service's {self._port}"
            )
        self._servers.append(server)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Service(port={self._port.name!r}, "
            f"servers={len(self.live_servers())}/{len(self._servers)})"
        )


class ServiceDirectory:
    """All services known to a distributed system, keyed by port."""

    def __init__(self) -> None:
        self._services: Dict[Port, Service] = {}

    def get_or_create(
        self, port: Port, handler: Optional[RequestHandler] = None
    ) -> Service:
        """The service for ``port``, created on first use."""
        if port not in self._services:
            self._services[port] = Service(port, handler)
        return self._services[port]

    def get(self, port: Port) -> Optional[Service]:
        """The service for ``port`` or ``None``."""
        return self._services.get(port)

    def ports(self) -> List[Port]:
        """All registered ports."""
        return list(self._services)

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, port: Port) -> bool:
        return port in self._services
