"""The workload driver: runs a scenario spec as production-style traffic.

The driver turns a declarative :class:`~repro.workload.spec.ScenarioSpec`
into tens of thousands of executed operations against a freshly built
:class:`~repro.processes.system.DistributedSystem`:

1. the arrival process, popularity model and churn model are materialized
   into one time-ordered program (each concern on its own seeded generator,
   so streams do not perturb each other);
2. every abstract step is resolved against live system state into a concrete
   :class:`~repro.workload.trace.TraceOp` (which server migrates to which
   node, which nodes a storm wipes) and executed through a single op
   interpreter — the same interpreter replays recorded traces, which is what
   makes replays exact;
3. what a request cost arrives as a return value: the network returns
   each message's hops, the match-maker and the system sum them into
   ``RequestOutcome.locate_hops``/``payload_hops``, and the interpreter
   records those two numbers — nothing is re-derived from the network's
   counters.  Those counters are zeroed once placement is done, so at the
   end of a run they *are* the run's per-node load and planner-cache
   events.

:meth:`WorkloadDriver.run` feeds that interpreter a generator of freshly
resolved ops (recording each), :meth:`WorkloadDriver.replay` a recorded
trace; everything around the loop — building the system, the timed overlay,
tracing, result assembly — exists once.  Run and replay of the same
scenario produce identical
:meth:`~repro.workload.metrics.WorkloadMetrics.summary` dictionaries.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, Iterator, List
from typing import Optional, Sequence

from ..codec import decode, encode
from ..core.types import Port
from ..network import faults as _faults
from ..network.simulator import Network
from ..obs.spans import SpanRecorder
from ..simtime.binding import TimedOverlay
from ..processes.client import ClientProcess
from ..processes.server import ServerProcess
from ..processes.system import DistributedSystem
from . import arrivals as _arrivals
from . import churn as _churn
from . import popularity as _popularity
from .metrics import WorkloadMetrics
from .spec import (
    ScenarioSpec,
    build_fault_timeline,
    build_strategy,
    build_topology,
)
from .trace import (
    CRASH,
    FAULT_CRASH,
    FAULT_RECOVER,
    LINK_DOWN,
    LINK_UP,
    MIGRATE,
    RECOVER,
    REQUEST,
    RESPAWN,
    STORM,
    Trace,
    TraceOp,
)


@dataclass
class WorkloadResult:
    """Everything one workload run produced."""

    spec: ScenarioSpec
    metrics: WorkloadMetrics
    trace: Trace
    wall_seconds: float
    #: Delivery-planner cache events over the measured run (plan/tree/route
    #: hit-miss counters from :class:`~repro.network.stats.MessageStats`,
    #: which the driver zeroes once the system is placed).
    #: Deterministic — a replay reproduces the exact same counts — but kept
    #: out of :meth:`summary` so summaries compare across planner versions.
    plan_cache: Dict[str, int] = field(default_factory=dict)
    #: The slowest-k request timelines of a timed run (empty when untimed).
    #: Seed-deterministic and replay-identical, but excluded from
    #: :meth:`to_dict` — exemplars are an observability artifact
    #: (``timeline`` records of the obs export), never part of a result
    #: digest.
    exemplars: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        """Executed requests per wall-clock second (not deterministic)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.metrics.requests / self.wall_seconds

    def summary(self) -> Dict[str, object]:
        """Deterministic digest: scenario identity plus the run's metrics."""
        return {
            "name": self.spec.name,
            "topology": self.spec.topology,
            "strategy": self.spec.strategy,
            **self.metrics.summary(),
        }

    def to_dict(self) -> Dict[str, object]:
        """The run as one deterministic, JSON-safe dictionary.

        Replaying the run's trace reproduces this dict byte-for-byte.
        Wall-clock throughput and the planner cache counters are deliberately
        excluded: the former is nondeterministic, the latter depends on
        whether the run shared a warm network with earlier matrix cells.
        """
        return {
            "spec": encode(self.spec),
            "summary": self.summary(),
            "trace_ops": self.trace.operation_counts(),
        }


#: Fault-timeline event kind -> the trace op kind that executes it.
_FAULT_OP_KINDS = {
    _faults.CRASH_NODE: FAULT_CRASH,
    _faults.RECOVER_NODE: FAULT_RECOVER,
    _faults.LINK_DOWN: LINK_DOWN,
    _faults.LINK_UP: LINK_UP,
}

#: Tie order of :meth:`WorkloadDriver._generate`'s queue at equal times.
_RECOVERY, _FAULT, _CHURN = range(3)


class _RunState:
    """Mutable per-run execution state (fresh for every run/replay)."""

    def __init__(
        self,
        system: DistributedSystem,
        clients: List[ClientProcess],
        slots: List[ServerProcess],
    ) -> None:
        self.system = system
        self.network = system.network
        self.clients = clients
        #: Server *slots*: slot k always denotes "the k-th logical server";
        #: failover respawns install the replacement process in the same slot.
        self.slots = slots
        self.client_nodes = frozenset(client.node for client in clients)
        #: Timed overlay pricing this run's requests (``None`` = untimed).
        self.overlay: Optional[TimedOverlay] = None


class WorkloadDriver:
    """Executes one scenario: generation, batched driving, measurement.

    Pass ``network`` to run on a shared, pre-built network (the matrix
    engine shares one network per topology so the O(n²) routing construction
    and the delivery planner's fault-free caches amortize across cells); the
    driver resets it to pristine state before every run, so results are
    identical to a run on a freshly built network.
    """

    def __init__(
        self, spec: ScenarioSpec, network: Optional[Network] = None
    ) -> None:
        self.spec = spec
        self._topology = build_topology(spec.topology)
        self._strategy = build_strategy(spec.strategy, self._topology)
        # Node ids alone are not identity: ring:16 and complete:16 share
        # {0..15} but route completely differently.
        if network is not None and not network.graph.same_edges(
            self._topology.graph
        ):
            raise ValueError(
                f"shared network (n={network.size}) does not match "
                f"topology {spec.topology!r}"
            )
        self._shared_network = network
        # A canonical node order gives every node a stable integer index;
        # traces store indices, never raw (possibly tuple-valued) node ids.
        self._nodes: List[Hashable] = sorted(self._topology.nodes(), key=repr)
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        self._ports = [Port(f"{spec.name}/svc-{i}") for i in range(spec.ports)]

    # -- environment construction ---------------------------------------------

    def _build_state(self) -> _RunState:
        """A fresh network + system with servers and clients placed.

        Placement draws from a dedicated generator derived only from the
        spec's seed, so a replay rebuilds the identical initial system.
        """
        spec = self.spec
        if self._shared_network is not None:
            network = self._shared_network
            network.reset_for_reuse()
        else:
            network = self._topology.build_network(
                delivery_mode=spec.delivery_mode
            )
        system = DistributedSystem(
            network,
            self._strategy,
            delivery_mode=spec.delivery_mode,
            max_retries=spec.max_retries,
        )
        placement = random.Random(f"{spec.seed}/placement")
        slots = [
            system.create_server(
                placement.choice(self._nodes),
                self._ports[slot % spec.ports],
                name=f"srv-{slot}",
            )
            for slot in range(spec.servers)
        ]
        clients = [
            system.create_client(placement.choice(self._nodes), name=f"cli-{i}")
            for i in range(spec.clients)
        ]
        # Placement traffic is not the workload: from here on the network's
        # counters hold the measured run and nothing else.
        network.reset_stats()
        return _RunState(system, clients, slots)

    def _attach_overlay(
        self, state: _RunState, metrics: WorkloadMetrics
    ) -> None:
        """Install the timed overlay when the spec carries a time model.

        Untimed specs leave the network tap empty and the metrics registry
        without timed instruments — the run is bit-for-bit the one a
        pre-simtime build produced.
        """
        model = self.spec.time_model
        if model is None:
            return
        metrics.enable_timing(slo=self.spec.slo)
        state.overlay = TimedOverlay(
            state.network, model, self.spec.seed, metrics
        )
        state.network.attach_tap(state.overlay)

    def _detach_overlay(self, state: _RunState) -> List[Dict[str, object]]:
        """Close out the timed overlay after the run's last op; returns
        its slowest-k exemplar timelines (empty for untimed runs)."""
        exemplars: List[Dict[str, object]] = []
        if state.overlay is not None:
            state.overlay.finalize()
            exemplars = state.overlay.exemplars()
            state.network.detach_tap()
            state.overlay = None
        return exemplars

    # -- the op interpreter ----------------------------------------------------

    def _exec_op(
        self, state: _RunState, metrics: WorkloadMetrics, op: TraceOp
    ) -> None:
        """Execute one fully-resolved operation (:meth:`_execute` is the
        only caller, for run and replay alike).

        When a tracer is bound, the op's trace time becomes the logical
        clock every span begun during this op is stamped with — the reason
        span streams are seed-deterministic and replay-identical.  REQUEST
        ops get a ``request`` span wrapping the whole locate/deliver tree;
        churn and fault ops get zero-duration event spans.
        """
        tracer = state.network.tracer
        if tracer is not None:
            tracer.set_clock(op.time)
            if op.kind != REQUEST:
                tracer.event(op.kind)
        system = state.system
        if op.kind == REQUEST:
            client_index, port_index = op.args
            client = state.clients[client_index]
            port = self._ports[port_index]
            if not self.spec.cache_addresses:
                client.forget_address(port)
            request_span = None
            if tracer is not None:
                request_span = tracer.begin(
                    "request", client=client_index, port=port_index
                )
            overlay = state.overlay
            if overlay is not None:
                overlay.begin_request(op.time)
            outcome = system.request(client, port, payload=None)
            locate_hops = outcome.locate_hops
            total_hops = locate_hops + outcome.payload_hops
            timing_attrs: Dict[str, object] = {}
            if overlay is not None:
                latency_us, completed_at = overlay.finish_request(
                    span_id=request_span, ok=outcome.ok
                )
                timing_attrs["latency_us"] = latency_us
                if tracer is not None:
                    # The request span closes at its virtual completion time
                    # (its begin kept the arrival time from set_clock above).
                    tracer.set_clock(completed_at)
            if tracer is not None:
                tracer.end(
                    request_span,
                    ok=outcome.ok,
                    locate_hops=locate_hops,
                    hops=total_hops,
                    **timing_attrs,
                )
            metrics.observe_request(
                ok=outcome.ok,
                locates=outcome.locates,
                retries=outcome.retries,
                from_cache=outcome.used_cached_address,
                locate_hops=locate_hops,
                total_hops=total_hops,
            )
        elif op.kind == MIGRATE:
            slot, node_index = op.args
            system.migrate_server(state.slots[slot], self._nodes[node_index])
            metrics.observe_churn(MIGRATE)
        elif op.kind in (CRASH, FAULT_CRASH):
            system.crash_node(self._nodes[op.args[0]])
            if op.kind == CRASH:
                metrics.observe_churn(CRASH)
            else:
                metrics.observe_fault(FAULT_CRASH)
        elif op.kind == RESPAWN:
            slot, node_index = op.args
            state.slots[slot] = system.create_server(
                self._nodes[node_index],
                self._ports[slot % self.spec.ports],
                name=f"srv-{slot}",
            )
            metrics.observe_churn(RESPAWN)
        elif op.kind in (RECOVER, FAULT_RECOVER):
            system.recover_node(self._nodes[op.args[0]])
            # The node returns with an empty cache; live servers re-advertise
            # so rendezvous through it works again (fresh timestamps win).
            for server in state.slots:
                if server.alive:
                    system.refresh_server(server)
            if op.kind == RECOVER:
                metrics.observe_churn(RECOVER)
            else:
                metrics.observe_fault(FAULT_RECOVER)
        elif op.kind == STORM:
            system.invalidate_caches(self._nodes[i] for i in op.args)
            # Servers notice and re-advertise; their fresh timestamps win at
            # every rendezvous node.
            for server in state.slots:
                if server.alive:
                    system.refresh_server(server)
            metrics.observe_churn(STORM)
        elif op.kind == LINK_DOWN:
            u, v = op.args
            state.network.fail_link(self._nodes[u], self._nodes[v])
            metrics.observe_fault(LINK_DOWN)
        elif op.kind == LINK_UP:
            u, v = op.args
            state.network.restore_link(self._nodes[u], self._nodes[v])
            metrics.observe_fault(LINK_UP)
        else:  # pragma: no cover - TraceOp validates kinds
            raise ValueError(f"unknown op kind {op.kind!r}")

    # -- fault-timeline resolution ---------------------------------------------

    def _fault_op(self, event: _faults.FaultEvent) -> TraceOp:
        """Map one scheduled fault event to a concrete trace op.

        Node events get the FAULT_* op kinds: they execute exactly like
        churn-driven crash/recover (processes die, recovered nodes trigger
        re-advertisement) but are metered as fault events, so the
        churn-versus-fault split in the metrics survives replay.
        """
        return TraceOp(
            _FAULT_OP_KINDS[event.kind],
            event.time,
            tuple(self._node_index[node] for node in event.subject),
        )

    # -- churn resolution ------------------------------------------------------

    def _up_node_indices(self, state: _RunState) -> List[int]:
        return [
            i for i, node in enumerate(self._nodes)
            if state.network.node_is_up(node)
        ]

    def _resolve_churn(
        self,
        state: _RunState,
        event: _churn.ChurnEvent,
        rng: random.Random,
        queue: List[tuple],
    ) -> List[TraceOp]:
        """Turn an abstract churn event into concrete trace ops.

        Resolution consults live state (who is alive, what is up), draws any
        random choices from ``rng``, and may push a recovery onto
        :meth:`_generate`'s ``queue``; the returned ops are ready for
        :meth:`_exec_op`.
        """
        if event.kind == _churn.MIGRATE:
            candidates = [
                slot for slot, server in enumerate(state.slots) if server.alive
            ]
            ups = self._up_node_indices(state)
            if not candidates or not ups:
                return []
            slot = rng.choice(candidates)
            return [TraceOp(MIGRATE, event.time, (slot, rng.choice(ups)))]

        if event.kind == _churn.FAILOVER:
            # Crash a server-hosting node; keep client hosts up so the
            # request stream survives.
            victims = sorted(
                {
                    self._node_index[server.node]
                    for server in state.slots
                    if server.alive
                    and server.node not in state.client_nodes
                    and state.network.node_is_up(server.node)
                }
            )
            if not victims:
                return []
            victim = rng.choice(victims)
            victim_node = self._nodes[victim]
            killed = [
                slot
                for slot, server in enumerate(state.slots)
                if server.alive and server.node == victim_node
            ]
            ops = [TraceOp(CRASH, event.time, (victim,))]
            ups = [i for i in self._up_node_indices(state) if i != victim]
            for slot in killed:
                if ups:
                    ops.append(TraceOp(RESPAWN, event.time, (slot, rng.choice(ups))))
            heapq.heappush(
                queue,
                (event.time + self.spec.churn.downtime, _RECOVERY, victim, None),
            )
            return ops

        if event.kind == _churn.STORM:
            ups = self._up_node_indices(state)
            if not ups:
                return []
            sample_size = max(1, int(self.spec.churn.storm_fraction * len(ups)))
            struck = sorted(rng.sample(ups, sample_size))
            return [TraceOp(STORM, event.time, tuple(struck))]

        raise ValueError(f"unknown churn event kind {event.kind!r}")

    # -- run / replay ----------------------------------------------------------

    def _generate(self, state: _RunState) -> Iterator[TraceOp]:
        """The scenario as a stream of resolved ops, in execution order.

        Lazy on purpose: churn is resolved against live state, so each op
        must have been executed before the next one is asked for.
        """
        spec = self.spec
        arrival_process = _arrivals.from_spec(spec.arrival)
        popularity_model = _popularity.from_spec(spec.popularity, spec.ports)
        churn_model = _churn.from_spec(spec.churn)

        # One private generator per concern: arrival jitter cannot perturb
        # popularity draws, churn cannot perturb either.
        arrival_rng = random.Random(f"{spec.seed}/arrivals")
        popularity_rng = random.Random(f"{spec.seed}/popularity")
        churn_rng = random.Random(f"{spec.seed}/churn")
        resolve_rng = random.Random(f"{spec.seed}/resolve")

        requests = list(
            arrival_process.arrivals(arrival_rng, spec.operations, spec.clients)
        )
        horizon = requests[-1][0] + 1e-9 if requests else 0.0
        # The fault timeline is materialized against the static graph with
        # its own generator; client hosts are protected (their death would
        # abort the request stream, which is the workload, not the subject).
        fault_rng = random.Random(f"{spec.seed}/faults")
        timeline = build_fault_timeline(
            spec.faults, self._topology.graph, fault_rng,
            protected=state.client_nodes,
        )
        # Everything that is not a request waits in one time-ordered queue
        # of ``(time, rank, order, item)``: ties execute recoveries first,
        # then fault events, then churn, each in schedule order.
        queue: List[tuple] = [
            (event.time, _FAULT, order, self._fault_op(event))
            for order, event in enumerate(timeline)
        ] + [
            (event.time, _CHURN, order, event)
            for order, event in enumerate(churn_model.schedule(churn_rng, horizon))
        ]
        heapq.heapify(queue)

        def due(until: float) -> Iterator[TraceOp]:
            while queue and queue[0][0] <= until:
                time, rank, order, item = heapq.heappop(queue)
                if rank == _RECOVERY:
                    yield TraceOp(RECOVER, time, (order,))
                elif rank == _FAULT:
                    yield item
                else:
                    yield from self._resolve_churn(
                        state, item, resolve_rng, queue
                    )

        for now, client_index in requests:
            yield from due(now)
            port_index = popularity_model.pick(popularity_rng, now)
            yield TraceOp(REQUEST, now, (client_index, port_index))
        yield from due(float("inf"))

    def _execute(
        self,
        program: Callable[[_RunState], Iterable[TraceOp]],
        trace: Trace,
        tracer: Optional[SpanRecorder],
    ) -> WorkloadResult:
        """Build a fresh system, execute ``program``'s ops, assemble the
        result — the one op loop behind :meth:`run` and :meth:`replay`."""
        state = self._build_state()
        metrics = WorkloadMetrics(universe_size=len(self._nodes))
        self._attach_overlay(state, metrics)
        # Bound for this run's ops only: placement above is not traced.
        state.network.tracer = tracer
        started = time.perf_counter()  # feeds wall_seconds, which canonical_dict zeroes
        try:
            for op in program(state):
                self._exec_op(state, metrics, op)
            wall = time.perf_counter() - started
        finally:
            # Also when an op raised: the caller's network must not keep a
            # capturing tap or tracer it never installed.
            state.network.tracer = None
            exemplars = self._detach_overlay(state)
        stats = state.network.stats
        metrics.node_load.update(stats.node_load)
        return WorkloadResult(
            spec=self.spec,
            metrics=metrics,
            trace=trace,
            wall_seconds=wall,
            plan_cache=dict(stats.plan_events),
            exemplars=exemplars,
        )

    def run(self, tracer: Optional[SpanRecorder] = None) -> WorkloadResult:
        """Generate and execute the scenario, recording a replayable trace.

        ``tracer`` collects the run's span tree (``request`` → ``locate`` →
        ``rendezvous-resolve`` → ``route``/``deliver``).  Spans are stamped
        with each op's trace time, never wall clock, so tracing a run
        changes nothing about its results.
        """
        trace = Trace(encode(self.spec))

        def recorded(state: _RunState) -> Iterator[TraceOp]:
            for op in self._generate(state):
                trace.append(op)
                yield op

        return self._execute(recorded, trace, tracer)

    def replay(
        self, trace: Trace, tracer: Optional[SpanRecorder] = None
    ) -> WorkloadResult:
        """Execute a recorded trace exactly; metrics match the original
        run — and so does the span stream, when ``tracer`` is given."""
        return self._execute(lambda state: trace, trace, tracer)


def run_scenario(
    spec: ScenarioSpec, tracer: Optional[SpanRecorder] = None
) -> WorkloadResult:
    """Build a driver for ``spec`` and run it once."""
    return WorkloadDriver(spec).run(tracer=tracer)


def replay_trace(trace: Trace) -> WorkloadResult:
    """Replay a recorded trace under the scenario stored in its header."""
    spec = decode(ScenarioSpec, trace.scenario)
    return WorkloadDriver(spec).replay(trace)


def compare_under_load(
    base: ScenarioSpec, strategies: Sequence[str]
) -> List[WorkloadResult]:
    """Run the *same* traffic program against several strategies.

    Every run shares the base spec's seed, so arrivals, popularity and churn
    schedules are identical across strategies — only the name server
    changes, which is exactly the comparison the paper's section 2.3 makes.
    """
    return [run_scenario(base.with_strategy(name)) for name in strategies]


def workload_table(results: Sequence[WorkloadResult]) -> List[Dict[str, object]]:
    """Compact per-strategy rows for report tables and benchmark output.

    Rows are fully deterministic (wall-clock throughput deliberately lives
    on :class:`WorkloadResult`, not here), so reports built from them can be
    compared byte-for-byte.
    """
    rows = []
    for result in results:
        metrics = result.metrics
        load = metrics.load_balance()
        rows.append(
            {
                "strategy": result.spec.strategy,
                "requests": metrics.requests,
                "ok%": round(100 * metrics.success_rate, 1),
                "locates": metrics.locates,
                "hit%": round(100 * metrics.cache_hit_rate, 1),
                "stale": metrics.stale_retries,
                "p50 hops": metrics.locate_hops.percentile(50),
                "p95 hops": metrics.locate_hops.percentile(95),
                "p99 hops": metrics.locate_hops.percentile(99),
                "load max/mean": load["imbalance"],
            }
        )
    return rows
