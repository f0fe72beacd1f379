"""Repo-specific knowledge the analyzer rules run against.

Everything the rules know about *this* codebase — which functions are
digest sinks, which classes cross the exec-engine process boundary, which
modules are declared wall-clock zones — lives here as plain data, so the
rules themselves stay generic AST machinery.  Tests inject a custom
:class:`AnalysisConfig` to exercise rules against fixture packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet


def _fs(*names: str) -> FrozenSet[str]:
    return frozenset(names)


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable facts about the analyzed tree (defaults fit ``src/repro``)."""

    #: Functions whose *output* feeds a persisted artifact or digest: the
    #: canonical serializers, and the P/Q rendezvous algebra itself (the
    #: locate results it produces are what every trace and metric records).
    #: Matched by terminal function name.
    digest_sinks: FrozenSet[str] = _fs(
        "canonical_dict", "canonical_digest", "digest", "to_dict", "dump",
        "summary", "post_set", "query_set", "rendezvous_set",
        "rendezvous_nodes",
    )

    #: The measured run loops: everything they (transitively) call executes
    #: inside a run whose metrics end up digested.  Matched by terminal name.
    entry_points: FrozenSet[str] = _fs(
        "run", "replay", "run_cell", "run_matrix", "run_matrix_parallel",
        "run_scenario", "replay_trace", "run_shard", "expand",
    )

    #: Modules (by dotted prefix) declared as wall-clock zones: phase
    #: profiling and progress/ETA rendering are *supposed* to read the
    #: clock, and both are digest-excluded by construction.
    wall_clock_zones: FrozenSet[str] = _fs(
        "repro.obs.profile", "repro.exec.progress",
    )

    #: Declared clock helpers (by qualified name): the only functions a
    #: wall-clock zone may export clock readings through.  Digest-cone code
    #: calls these instead of reading the clock inline (their results must
    #: still feed only digest-excluded fields); DET001 flags any *other*
    #: zone function that returns a clock reading, so new doorways out of a
    #: zone must be declared here.
    wall_clock_helpers: FrozenSet[str] = _fs(
        "repro.obs.profile.wall_clock",
    )

    #: Wall-clock reads DET001 hunts (resolved through import aliases).
    wall_clock_calls: FrozenSet[str] = _fs(
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    )

    #: Module-level ``random.*`` draws DET002 forbids (the shared global
    #: generator); ``random.Random``/``random.SystemRandom`` constructors
    #: are the sanctioned alternative and are not listed.
    global_random_calls: FrozenSet[str] = _fs(
        "random.random", "random.randint", "random.randrange",
        "random.choice", "random.choices", "random.shuffle", "random.sample",
        "random.uniform", "random.gauss", "random.normalvariate",
        "random.expovariate", "random.betavariate", "random.triangular",
        "random.vonmisesvariate", "random.getrandbits", "random.seed",
    )

    #: PYTHONHASHSEED/run-unique value sources DET003 forbids in
    #: digest-affecting code (``hash()``/``id()`` builtins plus these).
    unstable_value_calls: FrozenSet[str] = _fs(
        "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
        "os.urandom", "secrets.token_bytes", "secrets.token_hex",
        "secrets.token_urlsafe", "secrets.randbits", "secrets.randbelow",
    )

    #: Functions/methods known to return unordered sets, so DET004 can spot
    #: direct iteration over their results (``for n in post_set(...)``).
    set_returning: FrozenSet[str] = _fs(
        "set", "frozenset", "post_set", "query_set", "rendezvous_set",
        "rendezvous_nodes",
    )

    #: Classes whose instances cross the exec-engine process boundary
    #: (shard payloads outbound; spools and kept results inbound) — plus
    #: the report types built from them.  PKL001 checks their fields.
    boundary_classes: FrozenSet[str] = _fs(
        "MatrixCell", "IndexedCell", "Shard", "ShardPayload", "ScenarioSpec",
        "ArrivalSpec", "PopularitySpec", "ChurnSpec", "FaultRegimeSpec",
        "CellResult", "WorkloadResult", "WorkloadMetrics", "Trace", "TraceOp",
        "MetricsRegistry", "Counter", "Gauge", "Histogram", "CounterMap",
        "PhaseProfile", "MatrixReport", "CellCache", "TimeModelSpec",
        "LinkTiming", "Timeline", "SloSpec",
    )

    #: Type names that must never appear on a boundary-class field: live
    #: simulator state, synchronization primitives, handles, callables.
    unpicklable_types: FrozenSet[str] = _fs(
        "Network", "DeliveryPlanner", "Lock", "RLock", "Condition",
        "Semaphore", "BoundedSemaphore", "Event", "Thread", "Process",
        "Pool", "ProcessPoolExecutor", "ThreadPoolExecutor", "socket",
        "Socket", "IO", "TextIO", "BinaryIO", "Callable",
    )

    #: Constructor/factory calls that produce unpicklable values when
    #: assigned to a boundary-class field.
    unpicklable_calls: FrozenSet[str] = _fs(
        "open", "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Semaphore", "threading.Event", "socket.socket",
    )

    #: The digest-exclusion manifest: ``to_dict`` keys that are *declared*
    #: nondeterministic.  OBS001 demands each one be neutralized by a
    #: ``canonical_dict`` in the same module (popped or overwritten with a
    #: constant), and that no undeclared key be neutralized.
    digest_excluded_keys: FrozenSet[str] = _fs(
        "profile", "wall_seconds", "cache",
    )

    #: Instrument base classes whose subclasses (and anything handed to
    #: ``MetricsRegistry.register``) must carry an associative ``merge``.
    instrument_bases: FrozenSet[str] = _fs(
        "Counter", "Gauge", "Histogram", "CounterMap", "Timeline",
    )

    #: Rule ids disabled wholesale (handy for tests and scoped runs).
    disabled_rules: FrozenSet[str] = frozenset()

    def zone_allows_wall_clock(self, module: str) -> bool:
        """Whether ``module`` is inside a declared wall-clock zone."""
        for zone in self.wall_clock_zones:
            if module == zone or module.startswith(zone + "."):
                return True
        return False


DEFAULT_CONFIG = AnalysisConfig()
