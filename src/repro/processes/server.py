"""Server processes.

"A service is defined by a set of commands and responses.  Each service is
handled by one or more server processes that accept messages from clients,
carry out the required work, and send back replies" (section 1.3).  A server
process here is a node-resident process with a request handler; the
:class:`~repro.processes.system.DistributedSystem` delivers client requests
to it and routes the replies back.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from ..core.types import Port
from .process import Process

#: A request handler: receives the request payload, returns the reply payload.
RequestHandler = Callable[[object], object]


def echo_handler(payload: object) -> object:
    """The default handler: reply with the request payload unchanged."""
    return payload


class ServerProcess(Process):
    """A process offering a service on a port."""

    def __init__(
        self,
        node: Hashable,
        port: Port,
        handler: Optional[RequestHandler] = None,
        name: str = "",
    ) -> None:
        super().__init__(node, name or f"server[{port.name}]@{node}")
        self._port = port
        self._handler = handler or echo_handler

    @property
    def port(self) -> Port:
        """The port this server serves."""
        return self._port

    def handle(self, payload: object) -> object:
        """Process one request and produce the reply."""
        self.require_alive()
        return self._handler(payload)
