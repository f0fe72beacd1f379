"""Message-pass accounting.

"A message pass or hop consists of the sending of a message from one node to
one of its direct neighbors" (section 2.1).  Every simulator operation charges
its hops to a :class:`MessageStats` instance, broken down by category so that
experiments can separate posting, querying, replying and payload traffic.

Each counter family is a :class:`~repro.obs.registry.CounterMap` — a dict
subclass, so every existing read pattern (``stats.hops.get(...)``, direct
indexing, ``dict(...)`` copies) still works, while merge/snapshot/diff/
restore delegate to the one shared implementation instead of six
hand-rolled loops.

The counters are the network's *ledger*, written once per message by
:meth:`MessageStats.record`: one call validates every argument first and
then adds to ``hops``/``messages``/``delivered``/``dropped`` in place, so a
rejected call leaves the ledger untouched and an accepted one costs no
further call per family.  A category never charged reads 0, so each tally
is one subscript, ``family[category] += n``
(:meth:`~repro.obs.registry.CounterMap.bump` is for the colder
churn/fault families).  What one call cost is not read back
from here: the simulator returns it (``DeliveryOutcome.hops``,
``QueryOutcome.query_hops``/``reply_hops``, the ``int`` from
``send_payload``) and every layer above — match-maker, system, workload
driver — hands that number up as a return value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Tuple

from ..obs.registry import CounterMap

#: Categories used by the match-making engine.
POST = "post"
QUERY = "query"
REPLY = "reply"
PAYLOAD = "payload"
CONTROL = "control"


@dataclass
class MessageStats:
    """Counters of message passes (hops) and of messages, by category.

    ``node_load`` additionally counts, per node, how many delivered messages
    addressed that node — the operational form of the paper's load-balance
    concern ("the function of name server is distributed evenly").  A
    destination listed twice and reached counts twice.

    Every family reads 0 for a label it has never counted (the read
    inserts nothing), so ``stats.hops["post"]`` needs no ``get`` default.

    ``plan_events`` counts delivery-planner cache activity (``plan_hit``,
    ``plan_miss``, ``tree_hit``, ``tree_miss``, ``route_hit``,
    ``route_miss``).  These are accounting events about the *simulator's*
    work, not simulated traffic: they are excluded from hop/message
    totals and from workload summaries.
    """

    hops: CounterMap = field(default_factory=CounterMap)
    messages: CounterMap = field(default_factory=CounterMap)
    node_load: CounterMap = field(default_factory=CounterMap)
    plan_events: CounterMap = field(default_factory=CounterMap)
    #: Per-destination delivery outcomes by category: a message occurrence is
    #: *delivered* when its destination was reached and *dropped* when the
    #: destination was down or unreachable.  For point-to-point delivery
    #: traffic these obey the conservation law ``sent = delivered + dropped``
    #: (``messages[c] == delivered[c] + dropped[c]``), which the differential
    #: test suite pins for every strategy.
    delivered: CounterMap = field(default_factory=CounterMap)
    dropped: CounterMap = field(default_factory=CounterMap)

    def __post_init__(self) -> None:
        # Plain dicts passed to the constructor (snapshots built from
        # literals, test fixtures) are adopted as counter maps.
        for name, value in self._families():
            if not isinstance(value, CounterMap):
                setattr(self, name, CounterMap(value))

    def _families(self) -> Tuple[Tuple[str, CounterMap], ...]:
        return (
            ("hops", self.hops),
            ("messages", self.messages),
            ("node_load", self.node_load),
            ("plan_events", self.plan_events),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
        )

    def record(
        self,
        category: str,
        hop_count: int,
        message_count: int = 1,
        delivered: Optional[int] = None,
    ) -> None:
        """Charge ``hop_count`` hops and ``message_count`` messages to
        ``category``.

        Per-destination traffic also says how many of those messages were
        ``delivered``; the rest are counted dropped, so ``sent = delivered +
        dropped`` holds by construction.  Flood-style traffic (one message,
        many receivers) leaves ``delivered`` out.  All-or-nothing: a
        rejected argument raises before anything is charged.
        """
        if hop_count < 0 or message_count < 0:
            raise ValueError("counts must be non-negative")
        if delivered is not None and not 0 <= delivered <= message_count:
            raise ValueError("delivered must be between 0 and message_count")
        self.hops[category] += hop_count
        self.messages[category] += message_count
        if delivered is None:
            return
        if delivered:
            self.delivered[category] += delivered
        if delivered < message_count:
            self.dropped[category] += message_count - delivered

    def record_load(self, nodes: Iterable[Hashable]) -> None:
        """Count one delivered message against each node of ``nodes`` (a
        node listed twice is counted twice)."""
        load = self.node_load
        for node in nodes:
            load[node] += 1

    def record_plan_event(self, kind: str) -> None:
        """Count one delivery-planner cache event of ``kind`` — the one way
        the planner counts an event."""
        self.plan_events[kind] += 1

    def merge(self, other: "MessageStats") -> None:
        """Add another stats object into this one."""
        for name, family in self._families():
            family.merge(getattr(other, name))

    @property
    def total_hops(self) -> int:
        """All hops across categories."""
        return sum(self.hops.values())

    def snapshot(self) -> "MessageStats":
        """An independent copy of the current counters."""
        return MessageStats(
            **{name: family.snapshot() for name, family in self._families()}
        )

    def diff(self, earlier: "MessageStats") -> "MessageStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return MessageStats(
            **{
                name: family.diff(getattr(earlier, name))
                for name, family in self._families()
            }
        )

    def restore(self, snapshot: "MessageStats") -> None:
        """Put every counter family back to what ``snapshot`` recorded."""
        for name, family in self._families():
            family.clear()
            family.update(getattr(snapshot, name))

    def reset(self) -> None:
        """Zero every counter."""
        for _, family in self._families():
            family.clear()
