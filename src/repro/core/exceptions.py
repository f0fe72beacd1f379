"""Exception hierarchy for the match-making library.

All library-specific errors derive from :class:`MatchMakingError` so callers
can catch a single base class.  Errors are split along the package structure:
network/simulation errors, topology construction errors, strategy definition
errors, and service-model errors.
"""

from __future__ import annotations


class MatchMakingError(Exception):
    """Base class of every error raised by this library."""


class NetworkError(MatchMakingError):
    """Base class for errors raised by the network simulator."""


class UnknownNodeError(NetworkError, KeyError):
    """An operation referenced a node that is not part of the network."""

    def __init__(self, node: object) -> None:
        super().__init__(f"unknown node: {node!r}")
        self.node = node


class NodeDownError(NetworkError):
    """An operation was attempted on (or through) a crashed node."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node is down: {node!r}")
        self.node = node


class NoRouteError(NetworkError):
    """No route exists between two nodes (the network is partitioned)."""

    def __init__(self, source: object, destination: object) -> None:
        super().__init__(f"no route from {source!r} to {destination!r}")
        self.source = source
        self.destination = destination


class DisconnectedGraphError(NetworkError):
    """A topology or operation required a connected graph but got one that
    is not connected."""


class TopologyError(MatchMakingError):
    """A topology could not be constructed from the given parameters."""


class StrategyError(MatchMakingError):
    """A match-making strategy is ill-defined for the given network."""


class ServiceError(MatchMakingError):
    """Base class for errors in the service/process model."""


class ProcessLifecycleError(ServiceError):
    """A process was used in a way inconsistent with its lifecycle state
    (e.g. sending a request from a dead client)."""
