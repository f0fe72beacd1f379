"""Production-style metrics for workload runs.

The paper compares strategies by worst-case and average message counts; a
production service is judged by distributions — tail percentiles, hit
rates, hotspots.  Every measurement here is an instrument in a
:class:`~repro.obs.registry.MetricsRegistry`: counters for the request
stream, counter families for churn/fault activity and per-node load, exact
integer histograms for hop distributions.  Because registry merges are
associative, two runs' metrics — or one matrix's per-cell metrics — fold
together exactly like matrix cells do, and the merged percentiles equal the
ones a single combined run would report.

A timed run's instruments are written once per run: the overlay and its
queue stations count in tallies of fixed size, and
:meth:`WorkloadMetrics.observe_timed_run` folds them in by ``merge``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..obs.registry import CounterMap, Histogram, MetricsRegistry, Timeline
from ..simtime.queueing import LATENCY_BUCKETS_US

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .spec import SloSpec


#: Telemetry window width (virtual microseconds) when the scenario has no
#: SLO to supply one: half a virtual second, wide enough that light smoke
#: runs keep a handful of windows, narrow enough to localize a burst.
DEFAULT_WINDOW_US = 500_000

#: Timeline fields of a per-window request tally and queue-visit tally, and
#: the histogram slot of each latency bucket (its bound; one past the last).
_REQUEST_FIELDS = ("served", "failed", "latency_sum_us", "bad_latency", "latency_us_max")
_VISIT_FIELDS = ("admitted", "dropped", "depth_peak")
_LATENCY_SLOTS = LATENCY_BUCKETS_US + (LATENCY_BUCKETS_US[-1] + 1,)


class WorkloadMetrics:
    """Aggregated measurements of one workload run, registry-backed.

    The public shape is unchanged from the pre-registry implementation —
    integer properties (``requests``, ``cache_hits``...), dict-shaped
    counter families (``churn_events``, ``fault_events``, ``node_load``)
    and exact hop :class:`Histogram` handles — but every instrument lives
    in one :class:`~repro.obs.registry.MetricsRegistry`, so whole-run metrics
    :meth:`merge` associatively and export losslessly (histogram buckets
    included) for ``python -m repro obs``.
    """

    def __init__(self, universe_size: int = 0) -> None:
        registry = MetricsRegistry()
        self._registry = registry
        self._requests = registry.counter("requests")
        self._successes = registry.counter("successes")
        self._failures = registry.counter("failures")
        #: Requests served straight from the client's address cache (no
        #: locate).
        self._cache_hits = registry.counter("cache_hits")
        self._locates = registry.counter("locates")
        self._stale_retries = registry.counter("stale_retries")
        #: Resolved population-churn events by kind.
        self.churn_events: CounterMap = registry.counter_map("churn_events")
        #: Substrate fault-timeline events executed during the run (crash
        #: waves, link flaps), by trace-op kind.  Separate
        #: from ``churn_events``, which counts population churn.
        self.fault_events: CounterMap = registry.counter_map("fault_events")
        #: Hops spent on match-making (query + reply) per request.
        self.locate_hops: Histogram = registry.histogram("locate_hops")
        #: Total hops (match-making + payload round trip) per request.
        self.request_hops: Histogram = registry.histogram("request_hops")
        #: Delivered messages per node over the run (load balance).
        self.node_load: CounterMap = registry.counter_map("node_load")
        #: Total nodes in the network (so unloaded nodes count toward
        #: balance).  A gauge: merging runs keeps the largest universe.
        self._universe = registry.gauge("universe_size")
        self._universe.set(universe_size)
        #: Timed-run instruments (see :meth:`enable_timing`): ``None`` until
        #: a time model attaches, so an untimed run's registry, export and
        #: summary never mention them.
        self.request_latency: Optional[Histogram] = None
        self.queue_wait: Optional[Histogram] = None
        self.queue_depth: Optional[Histogram] = None
        self._message_timeouts = None
        self.link_busy: Optional[CounterMap] = None
        self._virtual_horizon = None
        #: Virtual-time windowed telemetry (timed runs only).
        self.timeline: Optional[Timeline] = None
        #: Critical-path blame per ``phase:kind:where`` contributor
        #: (timed runs only; see :mod:`repro.obs.attr`).
        self.critical_path: Optional[CounterMap] = None
        self._slo: Optional["SloSpec"] = None

    # -- registry plumbing ----------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The backing registry (what the obs export serializes)."""
        return self._registry

    # -- counter properties (read shape of the old dataclass fields) ----------

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def successes(self) -> int:
        return self._successes.value

    @property
    def failures(self) -> int:
        return self._failures.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def locates(self) -> int:
        return self._locates.value

    @property
    def stale_retries(self) -> int:
        return self._stale_retries.value

    @property
    def universe_size(self) -> int:
        return int(self._universe.value)

    # -- observation ----------------------------------------------------------

    def observe_request(
        self, ok: bool, locates: int, retries: int, from_cache: bool,
        locate_hops: int, total_hops: int,
    ) -> None:
        """Fold one request's outcome into the aggregates.

        Once per request, so the six instruments are added to directly;
        the guard below is :meth:`Counter.inc`'s, checked before anything
        is recorded.
        """
        if locates < 0 or retries < 0:
            raise ValueError("counters only increase")
        self._requests.value += 1
        if ok:
            self._successes.value += 1
        else:
            self._failures.value += 1
        if from_cache and locates == 0:
            self._cache_hits.value += 1
        self._locates.value += locates
        self._stale_retries.value += retries
        self.locate_hops.add(locate_hops)
        self.request_hops.add(total_hops)

    def observe_churn(self, kind: str) -> None:
        """Count one resolved churn event."""
        self.churn_events.bump(kind)

    def observe_fault(self, kind: str) -> None:
        """Count one executed fault-timeline event."""
        self.fault_events.bump(kind)

    # -- timed runs (repro.simtime) -------------------------------------------

    def enable_timing(self, slo: Optional["SloSpec"] = None) -> None:
        """Register the timed-run instruments (idempotent).

        Called only when a scenario carries a time model.  The digest
        contract of untimed runs is *absence*: none of these names appear
        in the registry, the obs export or :meth:`summary` unless timing
        was enabled, which keeps ``time_model=None`` results byte-identical
        to pre-simtime builds.

        ``slo`` sets the telemetry window width (its ``window``) and arms
        per-window burn-rate evaluation; without one the timeline still
        records at :data:`DEFAULT_WINDOW_US` but :meth:`summary` gains no
        ``slo`` section (so pre-SLO timed digests are preserved too).
        """
        if self.timed:
            return
        registry = self._registry
        #: Virtual request latency: op arrival to last message delivered.
        self.request_latency = registry.histogram(
            "request_latency_us", LATENCY_BUCKETS_US
        )
        #: Wait suffered at each queue visit (0 = no contention).
        self.queue_wait = registry.histogram("queue_wait_us", LATENCY_BUCKETS_US)
        #: Queue depth sampled at each message arrival (small exact ints).
        self.queue_depth = registry.histogram("queue_depth")
        self._message_timeouts = registry.counter("message_timeouts")
        #: Busy microseconds per link (keyed by simtime ``link_key``).
        self.link_busy = registry.counter_map("link_busy_us")
        #: The run's virtual horizon: the latest message completion time.
        self._virtual_horizon = registry.gauge("virtual_time_us")
        self._slo = slo
        #: Latency above which a request counts as SLO-bad: whole
        #: microseconds, converted once (``0.000249 * 1e6`` is just below
        #: 249, which would make a 249 us request bad).
        self.latency_objective_us = (
            int(round(slo.latency_objective * 1_000_000)) if slo else float("inf")
        )
        width_us = (
            max(1, int(round(slo.window * 1_000_000)))
            if slo is not None else DEFAULT_WINDOW_US
        )
        #: Per-window admitted/dropped/served/latency stream.
        self.timeline = registry.timeline("timeline", width_us)
        #: Critical-path microseconds per (phase, kind, where) contributor.
        self.critical_path = registry.counter_map("critical_path_us")

    @property
    def timed(self) -> bool:
        """Whether the timed instruments are registered on this run."""
        return self.request_latency is not None

    def observe_timed_run(
        self, latencies: List[int], requests: Dict[int, List[int]],
        waits: List[int], wait_us: int, depths: List[int],
        visits: Dict[int, List[int]], link_busy_us: Dict[str, int],
        critical_us: Dict[str, int], horizon_us: int,
    ) -> None:
        """Write one timed run's tallies into the registry, once: counts per
        latency bucket (the last overflow) and per depth, the waits' sum,
        per-window tallies in :data:`_REQUEST_FIELDS`/:data:`_VISIT_FIELDS`
        order (a drop is a queue-wait timeout), link busy and critical-path
        microseconds, and the latest completion."""
        for histogram, counts, slots, total in (
            (self.request_latency, latencies, _LATENCY_SLOTS,
             sum([tally[2] for tally in requests.values()])),
            (self.queue_wait, waits, _LATENCY_SLOTS, wait_us),
            (self.queue_depth, depths, range(len(depths)),
             sum([depth * count for depth, count in enumerate(depths)])),
        ):
            histogram.merge(Histogram.from_dump({
                "bounds": histogram.bucket_bounds, "count": sum(counts),
                "sum": total, "buckets": [
                    pair for pair in zip(slots, counts) if pair[1]
                ],
            }))
        timeline = self.timeline
        for names, tallies in ((_REQUEST_FIELDS, requests),
                               (_VISIT_FIELDS, visits)):
            timeline.merge(Timeline.from_dump({
                "width_us": timeline.width_us,
                "windows": [(index, dict(zip(names, tally)))
                            for index, tally in tallies.items()],
            }))
        self.link_busy.merge(link_busy_us)
        self._message_timeouts.inc(sum([tally[1] for tally in visits.values()]))
        self.critical_path.merge(critical_us)
        self._virtual_horizon.set(horizon_us)

    @property
    def message_timeouts(self) -> int:
        return self._message_timeouts.value if self._message_timeouts else 0

    @property
    def virtual_time_us(self) -> int:
        return int(self._virtual_horizon.value) if self._virtual_horizon else 0

    def slo_summary(self) -> Optional[Dict[str, object]]:
        """The SLO burn record, or ``None`` when no objective is armed.

        Burn rate is the error budget's spend speed: the observed bad
        fraction divided by the budgeted bad fraction (``1 - target``) —
        1.0 exactly spends the budget, 2.0 burns it twice as fast.  The
        whole-run rates use every served request; the per-window scan
        finds the *first* window whose own burn exceeds 1 (latency or
        availability), which is when a pager would have fired.
        """
        slo = self._slo
        if slo is None or self.timeline is None:
            return None
        latency_budget = 1.0 - slo.latency_target
        availability_budget = 1.0 - slo.availability_target
        served = self.timeline.total("served")
        bad_latency = self.timeline.total("bad_latency")
        failed = self.timeline.total("failed")
        first_breach_us: Optional[int] = None
        breached = 0
        for index, fields in self.timeline.windows():
            window_served = fields.get("served", 0)
            if not window_served:
                continue
            latency_burn = (
                fields.get("bad_latency", 0) / window_served / latency_budget
            )
            availability_burn = (
                fields.get("failed", 0) / window_served / availability_budget
            )
            if latency_burn > 1.0 or availability_burn > 1.0:
                breached += 1
                if first_breach_us is None:
                    first_breach_us = index * self.timeline.width_us
        return {
            "objective_us": self.latency_objective_us,
            "latency_target": slo.latency_target,
            "availability_target": slo.availability_target,
            "window_us": self.timeline.width_us,
            "served": served,
            "bad_latency": bad_latency,
            "failed": failed,
            "latency_burn_rate": round(
                bad_latency / served / latency_budget, 4
            ) if served else 0.0,
            "availability_burn_rate": round(
                failed / served / availability_budget, 4
            ) if served else 0.0,
            "windows": len(self.timeline),
            "breached_windows": breached,
            "first_breach_us": first_breach_us,
        }

    def link_utilization(self) -> Dict[str, float]:
        """The five busiest links as ``{link_key: busy/horizon}``."""
        horizon = self.virtual_time_us
        if not horizon or not self.link_busy:
            return {}
        ranked = sorted(
            self.link_busy.items(), key=lambda pair: (-pair[1], pair[0])
        )
        return {key: round(busy / horizon, 4) for key, busy in ranked[:5]}

    # -- derived quantities ---------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered without any locate."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def success_rate(self) -> float:
        """Fraction of requests that completed."""
        return self.successes / self.requests if self.requests else 0.0

    def load_balance(self) -> Dict[str, float]:
        """Per-node load summary: mean, max and the max/mean imbalance.

        An imbalance near 1 is the paper's "distributed evenly"; a
        centralized name server shows imbalance near n.
        """
        if not self.node_load:
            return {"nodes": self.universe_size, "mean": 0.0, "max": 0,
                    "imbalance": 0.0}
        loads = list(self.node_load.values())
        # Nodes that received nothing still dilute the mean: a centralized
        # name server on a 64-node network is imbalance ~64, not 1.
        population = max(self.universe_size, len(loads))
        mean = sum(loads) / population
        peak = max(loads)
        return {
            "nodes": population,
            "mean": round(mean, 3),
            "max": peak,
            "imbalance": round(peak / mean, 3) if mean else 0.0,
        }

    def hottest_nodes(self, limit: int = 5) -> List[Tuple[str, int]]:
        """The ``limit`` most-loaded nodes as ``(repr(node), load)``."""
        ranked = sorted(
            ((repr(node), load) for node, load in self.node_load.items()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:limit]

    def summary(self) -> Dict[str, object]:
        """A deterministic, JSON-safe digest of the whole run.

        Two runs of the same scenario spec produce byte-identical summaries;
        the driver's wall-clock numbers deliberately live outside this dict.
        Timed runs append ``latency`` and ``queues`` sections; untimed runs
        omit the keys entirely (the digest-neutrality contract).
        """
        data: Dict[str, object] = {
            "requests": self.requests,
            "successes": self.successes,
            "failures": self.failures,
            "success_rate": round(self.success_rate, 4),
            "locates": self.locates,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "stale_retries": self.stale_retries,
            "churn_events": dict(sorted(self.churn_events.items())),
            "fault_events": dict(sorted(self.fault_events.items())),
            "locate_hops": self.locate_hops.to_dict(),
            "request_hops": self.request_hops.to_dict(),
            "load": self.load_balance(),
            # Lists, not tuples, so the dict is canonical under a JSON
            # round-trip (persisted matrix cells compare equal after reload).
            "hottest_nodes": [list(pair) for pair in self.hottest_nodes()],
        }
        if self.timed:
            data["latency"] = self.request_latency.to_dict()
            data["queues"] = {
                "depth": self.queue_depth.to_dict(),
                "wait_us": self.queue_wait.to_dict(),
                "message_timeouts": self.message_timeouts,
                "virtual_us": self.virtual_time_us,
                "link_utilization": self.link_utilization(),
            }
            # The "slo" key exists only when the spec armed an objective,
            # so timed scenarios without one keep their pre-SLO summaries
            # (and digests) byte-identical.
            slo = self.slo_summary()
            if slo is not None:
                data["slo"] = slo
        return data
