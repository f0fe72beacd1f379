"""Lighthouse Locate (section 4).

Servers and clients send out "beams" — random-direction trails of bounded
length — instead of addressing fixed node sets.

* **Server's algorithm**: "Each server sends out a random direction beam of
  length l every δ time units.  Each trail left by such a beam disappears
  after d time units."
* **Client's algorithm**: "To locate a server, the client beams a request in
  a random direction at regular intervals.  Originally, the length of the
  beam is l and the intervals are δ.  After e unsuccessful trials, the client
  increases its effort by doubling the length of the inquiry beam and the
  intervals between them."  An alternative schedule follows the ruler
  sequence ``1 2 1 3 1 2 1 4 ...`` (Sloane's sequence 51): the beam length of
  trial ``t`` is ``l`` times one plus the number of trailing zeros of ``t``.

On point-to-point networks a beam is simulated by reverse-path forwarding
(the paper's own suggestion): the message is repeatedly forwarded along arcs
leading away from the beam's origin — see
:meth:`repro.network.routing.RoutingTable.reverse_path_beam`.

A trail is a posting like any other: the server's beam writes it through
the network's :class:`~repro.network.cache.PostingStore` stamped with the
time it was laid, and "disappears after d time units" is the store's
:meth:`~repro.network.cache.PostingStore.expire`, applied at each node a
client beam visits before it looks.  Nothing here holds a cache of its own.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from ..core.types import Address, Port, PostRecord
from ..network.routing import RoutingTable
from ..network.simulator import Network
from ..network.stats import POST, QUERY


# ---------------------------------------------------------------------------
# Beam-length schedules
# ---------------------------------------------------------------------------


class DoublingSchedule:
    """Beam length doubles after every ``escalate_after`` unsuccessful
    trials."""

    def __init__(self, base_length: int = 1, escalate_after: int = 1) -> None:
        if base_length < 1:
            raise ValueError("base_length must be at least 1")
        if escalate_after < 1:
            raise ValueError("escalate_after must be at least 1")
        self._base = base_length
        self._escalate_after = escalate_after

    def length_for_trial(self, trial: int) -> int:
        """Beam length of 1-based trial number ``trial``."""
        if trial < 1:
            raise ValueError("trials are numbered from 1")
        doublings = (trial - 1) // self._escalate_after
        return self._base * (2**doublings)


class RulerSchedule:
    """The paper's second schedule: lengths follow the ruler sequence.

    "The length of the locate beam is i·l once in each interval of 2^i
    trials" — trial ``t`` uses length ``l · (1 + trailing_zeros(t))``, giving
    the sequence 1 2 1 3 1 2 1 4 1 2 1 3 ... (times ``l``).  The schedule can
    be "maintained by a binary counter: the position of the most significant
    bit changed by the current unit increment indicates the current beam
    length".
    """

    def __init__(self, base_length: int = 1) -> None:
        if base_length < 1:
            raise ValueError("base_length must be at least 1")
        self._base = base_length

    def length_for_trial(self, trial: int) -> int:
        """Beam length of 1-based trial number ``trial``."""
        if trial < 1:
            raise ValueError("trials are numbered from 1")
        trailing_zeros = 0
        value = trial
        while value % 2 == 0:
            value //= 2
            trailing_zeros += 1
        return self._base * (1 + trailing_zeros)

    @staticmethod
    def sequence_prefix(count: int) -> List[int]:
        """The first ``count`` multipliers of the ruler sequence
        (1,2,1,3,1,2,1,4,...)."""
        schedule = RulerSchedule()
        return [schedule.length_for_trial(t) for t in range(1, count + 1)]


# ---------------------------------------------------------------------------
# The Lighthouse simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LighthouseResult:
    """Outcome of one client locate under Lighthouse Locate."""

    found: bool
    trials: int
    client_messages: int
    server_messages: int
    elapsed_time: int
    address: Optional[Address] = None


class LighthouseLocate:
    """Probabilistic locate by beaming on an arbitrary point-to-point
    network.

    Parameters
    ----------
    network:
        The network to run on.  Trails are ordinary postings in its
        :class:`~repro.network.cache.PostingStore`, stamped with the time
        they were laid; a node a client beam visits first expires what is
        ``trail_ttl`` old, so trails evaporate as the paper requires.
    server_beam_length:
        Length ``l`` of the server's beams.
    server_period:
        ``δ``: a server beams every ``server_period`` time units.
    trail_ttl:
        ``d``: how long a trail posting stays in a cache.
    schedule:
        The client's beam-length schedule (:class:`DoublingSchedule` or
        :class:`RulerSchedule`).
    seed:
        Seed for beam directions.

    Time is this object's own integer, starting at 0: server beams bring it
    up to their deadline and each unsuccessful client trial adds
    ``trial_interval``.  The network keeps no clock.
    """

    def __init__(
        self,
        network: Network,
        server_beam_length: int = 2,
        server_period: int = 4,
        trail_ttl: int = 8,
        schedule: Optional[object] = None,
        seed: int = 0,
    ) -> None:
        if server_beam_length < 1:
            raise ValueError("server_beam_length must be at least 1")
        if server_period < 1:
            raise ValueError("server_period must be at least 1")
        if trail_ttl < 1:
            raise ValueError("trail_ttl must be at least 1")
        self._network = network
        self._beam_length = server_beam_length
        self._period = server_period
        self._ttl = trail_ttl
        self._schedule = schedule if schedule is not None else DoublingSchedule()
        self._rng = random.Random(seed)
        self._servers: List[Tuple[Hashable, Port, str]] = []
        self._routing = network.routing
        self._now = 0
        self._last_server_time = -1

    @property
    def network(self) -> Network:
        """The underlying network."""
        return self._network

    @property
    def schedule(self):
        """The client beam-length schedule in use."""
        return self._schedule

    # -- servers ---------------------------------------------------------------

    def add_server(self, node: Hashable, port: Port, server_id: str = "") -> None:
        """Register a server that will beam its (port, address) trail."""
        self._servers.append((node, port, server_id or f"lighthouse@{node}"))

    def _beam_targets(self, origin: Hashable, length: int) -> List[Hashable]:
        # A beam longer than the network has nodes cannot visit anything new;
        # capping here keeps the escalating client schedules (whose nominal
        # lengths grow exponentially) from wasting unbounded work.
        capped = min(length, self._network.size)
        return self._routing.reverse_path_beam(origin, capped, self._rng)

    def _server_beam(self, node: Hashable, port: Port, server_id: str, now: int) -> int:
        """One server beam: lay a trail of postings; returns hops spent."""
        if not self._network.node_is_up(node):
            return 0
        targets = self._beam_targets(node, self._beam_length)
        record = PostRecord(
            port=port, address=Address(node), timestamp=now, server_id=server_id
        )
        trail = list(itertools.takewhile(self._network.node_is_up, targets))
        self._network.postings.post(record, trail)
        self._network.stats.record(POST, len(trail), message_count=1)
        return len(trail)

    def run_servers_until(self, deadline: int) -> int:
        """Let every registered server beam on its period up to
        ``deadline``; returns total server hops spent.

        Every time unit since the previous call is processed exactly once,
        so server beams are neither skipped nor double-counted no matter how
        the client schedules its trials.
        """
        hops = 0
        for time in range(self._last_server_time + 1, deadline + 1):
            if time % self._period == 0:
                for node, port, server_id in self._servers:
                    hops += self._server_beam(node, port, server_id, time)
        self._last_server_time = max(self._last_server_time, deadline)
        self._now = max(self._now, deadline)
        return hops

    # -- clients ---------------------------------------------------------------

    def locate(
        self,
        client_node: Hashable,
        port: Port,
        max_trials: int = 64,
        trial_interval: int = 1,
    ) -> LighthouseResult:
        """Run the client's escalating beam schedule until the port is found.

        Between consecutive client trials the registered servers keep beaming
        (time advances by ``trial_interval`` per trial), so the experiment
        reflects the interplay of trail evaporation and re-beaming.
        """
        if max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        if trial_interval < 0:
            raise ValueError("trial_interval must be non-negative")
        postings = self._network.postings
        client_hops_total = 0
        server_hops_total = 0
        start_time = self._now
        for trial in range(1, max_trials + 1):
            now = self._now
            server_hops_total += self.run_servers_until(now)
            length = self._schedule.length_for_trial(trial)
            targets = self._beam_targets(client_node, length)
            trial_hops = 0
            found_record: Optional[PostRecord] = None
            for target in targets:
                if not self._network.node_is_up(target):
                    break
                trial_hops += 1
                postings.expire(target, now - self._ttl)
                record = postings.lookup(target, port)
                if record is not None:
                    found_record = record
                    break
            client_hops_total += trial_hops
            self._network.stats.record(QUERY, trial_hops, message_count=1)
            if found_record is not None:
                return LighthouseResult(
                    found=True,
                    trials=trial,
                    client_messages=client_hops_total,
                    server_messages=server_hops_total,
                    elapsed_time=self._now - start_time,
                    address=found_record.address,
                )
            self._now += trial_interval
        return LighthouseResult(
            found=False,
            trials=max_trials,
            client_messages=client_hops_total,
            server_messages=server_hops_total,
            elapsed_time=self._now - start_time,
        )
