"""The elementary strategies: broadcasting, sweeping and the centralized
name server (Examples 1-3 of section 2.3.1).

* **Broadcasting** — "The server stays put and client looks everywhere":
  ``P(i) = {i}``, ``Q(j) = U``.
* **Sweeping** — "The client stays put and the server looks for work":
  ``P(i) = U``, ``Q(j) = {j}``.
* **Centralized name server** — all services post at one well-known node and
  all clients query it: ``P(i) = Q(j) = {centre}``.

All three are extreme points of the post/query trade-off; the checkerboard
strategy (Example 4) sits at its balanced optimum.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Optional

from ..core.exceptions import StrategyError
from ..core.types import Port
from .base import UniverseStrategy


class BroadcastStrategy(UniverseStrategy):
    """Example 1: the server posts only locally, the client asks everybody.

    ``m(i, j) = 1 + n`` for every pair; the rendezvous node is always the
    server's own node, so the strategy trivially satisfies the distributed
    robustness criterion but is expensive for clients.
    """

    name = "broadcast"

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset({node})

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._universe


class SweepStrategy(UniverseStrategy):
    """Example 2: the server advertises everywhere, the client only asks
    locally.

    The mirror image of broadcasting: ``m(i, j) = n + 1``; cheap locates,
    expensive postings — good when services are immobile and long-lived.
    """

    name = "sweep"

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._universe

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset({node})


class CentralizedStrategy(UniverseStrategy):
    """Example 3: a single well-known name-server node.

    ``m(i, j) = 2`` — optimal in message passes, but the centre is a single
    point of failure: "when the host of the name server crashes, the entire
    network crashes" (section 1.4).
    """

    name = "centralized"

    def __init__(self, universe: Iterable[Hashable], centre: Hashable) -> None:
        super().__init__(universe)
        if centre not in self._universe:
            raise StrategyError(f"centre {centre!r} is not in the universe")
        self._centre = centre

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset({self._centre})

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return frozenset({self._centre})


class FullStrategy(UniverseStrategy):
    """The most inefficient strategy: ``P(i) = Q(j) = U``.

    Mentioned at the end of section 2.3.4 (``m(n) = 2n``); maximally
    redundant — every node is a rendezvous node for every pair — and used as
    the upper anchor in comparison experiments.
    """

    name = "full"

    def post_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._universe

    def query_set(self, node: Hashable, port: Optional[Port] = None) -> FrozenSet:
        self._require_member(node)
        return self._universe
