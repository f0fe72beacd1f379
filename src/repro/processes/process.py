"""Process base class for the service model.

Section 1.3 of the paper (the Amoeba-style service model): "Services are
offered by a number of server processes, distributed over the network.
Client processes send requests to services; the services carry out these
requests and return a reply. ... So a process can be a client, a server, or
both, and change its role dynamically."

Processes live at a network node, can migrate to another node and can die;
they never have permanent addresses — only their current node's address.
"""

from __future__ import annotations

import itertools
from typing import Hashable

from ..core.exceptions import ProcessLifecycleError

_process_ids = itertools.count(1)


class Process:
    """A process residing at a network node.

    Its state is plain attributes, read on every request without a call:
    ``pid`` (unique within the Python process), ``name``, ``node`` (where
    it currently resides; changed only through the system's migration)
    and ``alive`` (cleared by :meth:`kill`).
    """

    def __init__(self, node: Hashable, name: str = "") -> None:
        self.pid: int = next(_process_ids)
        self.node: Hashable = node
        self.name: str = name or f"process-{self.pid}"
        self.alive: bool = True

    def require_alive(self) -> None:
        """Raise :class:`ProcessLifecycleError` if the process has died."""
        if not self.alive:
            raise ProcessLifecycleError(f"{self.name} (pid {self.pid}) is dead")

    def kill(self) -> None:
        """Terminate the process."""
        self.alive = False

    def _move_to(self, node: Hashable) -> None:
        """Relocate the process (used by the system's migration logic)."""
        self.require_alive()
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else "dead"
        return f"{type(self).__name__}({self.name!r}, node={self.node!r}, {status})"
