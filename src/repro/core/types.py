"""Fundamental value types shared by the whole library.

The paper models a network as an undirected graph ``G = (U, E)`` whose nodes
host *processes*.  Processes are addressed by the node they currently reside
on; services are addressed by *ports* which carry no location information
(paper, section 1.3).  Match-making associates a port with the address of a
server process currently offering it.

The types in this module are deliberately small and immutable: node
identifiers, ports, addresses, and the ``(port, address)`` records that servers
post at rendezvous nodes.

Two things here sit on the request path and are shaped by it.
:class:`MatchResult` is built once per locate, so it is a
:class:`~typing.NamedTuple` — a frozen dataclass pays one
``object.__setattr__`` per field on every construction, a tuple is filled
in one step — and :func:`freshest` is the one place the "newest posting
wins" order of section 2.1 is decided, for the node caches and for query
results alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, NamedTuple, Optional, Tuple

#: A node identifier.  Topology generators may use plain integers (complete
#: graphs, rings), tuples of coordinates (meshes, cube-connected cycles) or
#: strings of bits (hypercubes); anything hashable and orderable works.
NodeId = object

#: Set-of-nodes type alias used in strategy signatures ``P, Q: U -> 2^U``.
NodeSet = FrozenSet


@dataclass(frozen=True, order=True)
class Port:
    """A service port: a location-independent name of a service.

    A port "uniquely names a service" and "gives no clue about the physical
    location of a server process" (paper, section 1.3).  Ports are compared
    and hashed by their name only.
    """

    name: str

    def __hash__(self) -> int:
        # A str caches its hash; the generated one builds a 1-tuple per call,
        # and every locate, post and memo lookup hashes its port.
        return hash(self.name)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"port:{self.name}"


@dataclass(frozen=True, order=True)
class Address:
    """A network address: the identifier of the node a process resides on.

    The paper assumes that "given an address, the network is capable of
    routing a message to the node at that address" (section 1.3); the routing
    substrate in :mod:`repro.network.routing` provides exactly that.
    """

    node: object

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"addr:{self.node}"


@dataclass(frozen=True)
class PostRecord:
    """A ``(port, address)`` pair posted by a server at a rendezvous node.

    ``timestamp`` implements the paper's remark that postings "can be
    timestamped ... to determine which addresses are out of date in case of a
    conflict" (section 2.1, assumption 3).  Larger timestamps are newer.
    """

    port: Port
    address: Address
    timestamp: int = 0
    server_id: str = ""

    def is_newer_than(self, other: "PostRecord") -> bool:
        """Return ``True`` when this record supersedes ``other``.

        Records for the same port supersede each other by timestamp; ties are
        broken by the address so that the comparison is a total order and the
        cache behaviour is deterministic.
        """
        if self.port != other.port:
            raise ValueError(
                f"cannot compare postings for different ports: "
                f"{self.port} vs {other.port}"
            )
        if self.timestamp != other.timestamp:
            return self.timestamp > other.timestamp
        return repr(self.address) > repr(other.address)


def freshness_key(record: PostRecord) -> Tuple[int, str]:
    """The total order postings are ranked by — ``is_newer_than`` as a sort
    key: newer timestamps first, ties broken by ``repr(address)``."""
    return (record.timestamp, repr(record.address))


def freshest(records: Iterable[PostRecord]) -> Optional[PostRecord]:
    """The freshest of ``records``, or ``None`` when there are none.

    ``max(records, key=freshness_key)`` — on a full tie the first record
    met wins — without building a key per record: a lone record is
    returned as it is, and ``repr`` is only taken when two timestamps are
    equal.
    """
    best = None
    for record in records:
        if best is None:
            best = record
        elif record.timestamp > best.timestamp or (
            record.timestamp == best.timestamp
            and repr(record.address) > repr(best.address)
        ):
            best = record
    return best


class PortFactory:
    """Deterministic factory of fresh, unique ports.

    Useful in simulations and tests that need many distinct services without
    caring about their names.
    """

    def __init__(self, prefix: str = "svc") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def new_port(self) -> Port:
        """Create a new unique port."""
        return Port(f"{self._prefix}-{next(self._counter)}")

    def new_ports(self, count: int) -> Tuple[Port, ...]:
        """Create ``count`` new unique ports."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return tuple(self.new_port() for _ in range(count))


class MatchResult(NamedTuple):
    """Outcome of a single match-making instance between a client and a port.

    An immutable tuple record: construct it by keyword or, on the hot path,
    positionally in field order.

    Attributes
    ----------
    found:
        Whether any rendezvous node returned an address for the port.
    address:
        The freshest address found (``None`` when ``found`` is ``False``).
    rendezvous_nodes:
        The nodes at which the match was made (``P(i) ∩ Q(j)`` restricted to
        nodes that actually held a posting and were alive).
    post_messages / query_messages / reply_messages:
        Message-pass (hop) counts attributable to the server's posting, the
        client's querying, and the rendezvous nodes' replies respectively.
        The paper's primary cost measure ``m(i,j)`` counts posting plus
        querying (M3); replies are reported separately so both accountings
        are available.
    nodes_posted / nodes_queried:
        ``#P(i)`` and ``#Q(j)`` — the addressed-node counts used by the
        complete-network lower bounds.
    """

    found: bool
    address: object = None
    rendezvous_nodes: FrozenSet = frozenset()
    post_messages: int = 0
    query_messages: int = 0
    reply_messages: int = 0
    nodes_posted: int = 0
    nodes_queried: int = 0

    @property
    def total_messages(self) -> int:
        """All message passes including replies."""
        return self.post_messages + self.query_messages + self.reply_messages

    @property
    def match_messages(self) -> int:
        """The paper's ``m(i,j)``: post plus query message passes (M3)."""
        return self.post_messages + self.query_messages

    @property
    def addressed_nodes(self) -> int:
        """``#P(i) + #Q(j)``: the complete-network cost (section 2.3.2)."""
        return self.nodes_posted + self.nodes_queried


def as_node_set(nodes: Iterable) -> FrozenSet:
    """Normalise an iterable of node identifiers to a frozen set."""
    return frozenset(nodes)
