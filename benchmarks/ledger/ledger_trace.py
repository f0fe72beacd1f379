"""Per-layer measurement from outside: call counts and boundary spans.

Two instruments, both owned by the benchmark and neither touching the
program's source:

* the **count pass** runs one repetition under ``cProfile`` and attributes
  every Python/C call to a layer by the file its code lives in — a host-cost
  proxy that repeats exactly;
* the **span pass** installs wrappers on the public boundary functions
  listed in :data:`BOUNDARIES`, records one span per crossing (name, start,
  end, parent, repetition id) in memory, and removes the wrappers again.

Layers are the repo's modules.  A file ``repro/<pkg>/<mod>.py`` belongs to
layer ``<pkg>.<mod>`` when that is a named layer, to ``<pkg>`` when the
whole package is one (``strategies``, ``topologies``), else to
``<pkg>.other`` — so layer counts plus ``builtins``, ``stdlib`` and the
harness's own ``bench`` frames add up to the end-to-end count.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro

_REPRO_ROOT = Path(repro.__file__).resolve().parent
_BENCH_ROOT = Path(__file__).resolve().parent

#: layer -> boundary callables as ``module:qualified.name``.  Trivial
#: functions called more than ~5x per request are count-only: taken per
#: function from the count pass, never wrapped.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "workload.driver": (
        "repro.workload.driver:WorkloadDriver.__init__",
        "repro.workload.driver:WorkloadDriver.run",
    ),
    "workload.metrics": (
        "repro.workload.metrics:WorkloadMetrics.observe_request",
        "repro.workload.metrics:WorkloadMetrics.observe_churn",
        "repro.workload.metrics:WorkloadMetrics.observe_fault",
        "repro.workload.metrics:WorkloadMetrics.summary",
    ),
    "processes.system": (
        "repro.processes.system:DistributedSystem.request",
        "repro.processes.system:DistributedSystem.create_server",
        "repro.processes.system:DistributedSystem.migrate_server",
        "repro.processes.system:DistributedSystem.crash_node",
        "repro.processes.system:DistributedSystem.recover_node",
        "repro.processes.system:DistributedSystem.refresh_server",
        "repro.processes.system:DistributedSystem.invalidate_caches",
    ),
    "core.matchmaker": (
        "repro.core.matchmaker:MatchMaker.locate",
        "repro.core.matchmaker:MatchMaker.register_server",
        "repro.core.matchmaker:MatchMaker.deregister_server",
        "repro.core.matchmaker:MatchMaker.migrate_server",
    ),
    # The concrete strategy classes come from the workload (see install()).
    "strategies": (),
    "network.simulator": (
        "repro.network.simulator:Network.query",
        "repro.network.simulator:Network.post",
        "repro.network.simulator:Network.unpost",
        "repro.network.simulator:Network.deliver",
        "repro.network.simulator:Network.send_payload",
        "repro.network.simulator:Network.broadcast",
    ),
    "network.delivery": (
        "repro.network.delivery:DeliveryPlanner.plan",
        "repro.network.delivery:DeliveryPlanner.routing_table",
        "repro.network.delivery:DeliveryPlanner.spanning_tree",
    ),
    "simtime.binding": (
        "repro.simtime.binding:TimedOverlay.begin_request",
        "repro.simtime.binding:TimedOverlay.on_delivery",
        "repro.simtime.binding:TimedOverlay.on_replies",
        "repro.simtime.binding:TimedOverlay.on_payload",
        "repro.simtime.binding:TimedOverlay.finish_request",
        "repro.simtime.binding:TimedOverlay.finalize",
    ),
    "simtime.kernel": ("repro.simtime.kernel:SimKernel.run",),
    "simtime.queueing": ("repro.simtime.queueing:FifoResource.acquire",),
    "workload.matrix": (
        "repro.workload.matrix:run_matrix",
        "repro.workload.matrix:run_cell",
        "repro.workload.matrix:MatrixSpec.expand",
        "repro.workload.matrix:MatrixReport.digest",
    ),
    "exec.plan": ("repro.exec.plan:ExecutionPlan.from_matrix",),
    "exec.runner": ("repro.exec.runner:run_matrix_parallel",),
    "exec.spool": ("repro.exec.spool:load_spool",),
    "exec.cache": (
        "repro.exec.cache:IncrementalRunner.lookup",
        "repro.exec.cache:IncrementalRunner.warmup",
        "repro.exec.cache:IncrementalRunner.record",
        "repro.exec.cache:CellCache.load",
        "repro.exec.cache:CellCache.store",
        "repro.exec.cache:CellKeyer.key",
    ),
    "topologies": (
        "repro.workload.spec:build_topology",
        "repro.topologies.base:Topology.build_network",
    ),
}

#: Layers measured by module share of the count pass only.
COUNT_ONLY_LAYERS = (
    "network.routing", "network.faults", "network.cache", "network.node",
    "network.stats", "processes.client", "obs.registry", "obs.timeline",
)
#: Packages whose unlisted modules fall into ``<pkg>.other``.
OTHER_PACKAGES = (
    "core", "network", "obs", "processes", "simtime", "workload", "exec",
)
#: Every bucket a profiled call can land in; the counts sum to the total.
COUNT_LAYERS = (
    tuple(BOUNDARIES) + COUNT_ONLY_LAYERS
    + tuple(f"{package}.other" for package in OTHER_PACKAGES)
    + ("repro.other", "bench", "builtins", "stdlib")
)

#: ``DistributedSystem`` boundaries that are the write path.
WRITE_SPANS = tuple(
    target.rsplit(":", 1)[1] for target in BOUNDARIES["processes.system"]
    if not target.endswith(".request")
)


# -- count pass -------------------------------------------------------------------

def layer_of(code) -> Tuple[str, str]:
    """``(layer, function name)`` of one ``cProfile`` entry's code."""
    if isinstance(code, str):
        return "builtins", code
    path = Path(code.co_filename)
    if _REPRO_ROOT in path.parents:
        parts = path.relative_to(_REPRO_ROOT).with_suffix("").parts
        if len(parts) >= 2:
            package, module = parts[0], ".".join(parts[:2])
            if module in BOUNDARIES or module in COUNT_ONLY_LAYERS:
                return module, code.co_name
            if package in BOUNDARIES:
                return package, code.co_name
            if package in OTHER_PACKAGES:
                return f"{package}.other", code.co_name
        return "repro.other", code.co_name
    if _BENCH_ROOT in path.parents:
        return "bench", code.co_name
    return "stdlib", code.co_name


def count_calls(call: Callable[[], object]):
    """Run ``call`` under ``cProfile``; returns ``(output, total, by_layer,
    by_function)`` where ``by_function`` is keyed ``(layer, function name)``.

    ``total`` is the sum of ``ncalls`` over every profile entry (recursive
    calls included), exactly what ``pstats`` prints as "function calls".
    """
    profiler = cProfile.Profile()
    output = profiler.runcall(call)
    by_layer = dict.fromkeys(COUNT_LAYERS, 0)
    by_function: Dict[Tuple[str, str], int] = {}
    for entry in profiler.getstats():
        key = layer_of(entry.code)
        by_layer[key[0]] += entry.callcount
        if key[0] not in ("builtins", "stdlib"):
            by_function[key] = by_function.get(key, 0) + entry.callcount
    return output, sum(by_layer.values()), by_layer, by_function


# -- span pass --------------------------------------------------------------------

def _resolve(target: str):
    """``(class, method name)`` or ``(None, function)`` for a
    ``module:qualified.name`` boundary."""
    module_name, _, qualified = target.partition(":")
    module = importlib.import_module(module_name)
    parts = qualified.split(".")
    if len(parts) == 1:
        return None, getattr(module, parts[0])
    return getattr(module, parts[0]), parts[1]


def _defining_class(cls: type, attribute: str) -> type:
    for base in cls.__mro__:
        if attribute in base.__dict__:
            return base
    raise AttributeError(f"{cls.__name__} has no attribute {attribute!r}")


class SpanTracer:
    """Benchmark-owned boundary wrappers and the spans they record.

    Spans are tuples ``(name id, start ns, end ns, parent span index or -1,
    repetition id)`` appended in call order; ``names[name id]`` is
    ``layer/Class.method``.  ``totals[(repetition id, name id)]`` keeps the
    running ``[calls, self ns]`` so metrics need no second walk: a span's
    self time is its duration minus the durations of its direct children.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.totals: Dict[Tuple[int, int], List[int]] = {}
        #: Repetition id stamped on new spans (0 = set-up).
        self.repetition = 0
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, function, name: str, probe=None):
        """The span-recording wrapper of ``function``.

        ``probe(args, result)`` — when given — runs after a successful call
        (inside the span), for the few ratios only a return value or the
        receiving object can supply.
        """
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, totals = self.spans, self._stack, self.totals
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
                if probe is not None:
                    probe(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                repetition = self.repetition
                spans[index] = (name_id, start, end, parent, repetition)
                total = totals.get((repetition, name_id))
                if total is None:
                    total = totals[(repetition, name_id)] = [0, 0]
                total[0] += 1
                total[1] += duration - frame[1]

        return wrapper

    def _patch_method(self, layer: str, cls: type, attribute: str,
                      probe=None) -> None:
        """Wrap ``cls.attribute`` on the class in the MRO that defines it,
        keeping classmethod/staticmethod descriptors intact."""
        owner = _defining_class(cls, attribute)
        if any(p[0] is owner and p[1] == attribute for p in self._patches):
            return  # two concrete strategies may share a defining base
        raw = owner.__dict__[attribute]
        name = f"{layer}/{owner.__name__}.{attribute}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name, probe)
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, raw))

    def _patch_function(self, layer: str, function) -> None:
        """Replace ``function`` in every ``repro`` module that imported it
        by name — a module-level function is looked up in its caller's
        globals, not where it was defined."""
        wrapped = self._wrap(function, f"{layer}/{function.__name__}")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapped)
                    self._patches.append((module, attribute, function))

    def install(
        self,
        strategy_classes: Iterable[type] = (),
        layers: Optional[Iterable[str]] = None,
        probes: Optional[Dict[str, Callable]] = None,
    ) -> None:
        """Wrap the boundary functions of ``layers`` (default: all).

        ``probes`` maps a boundary (as spelled in :data:`BOUNDARIES`) to its
        ``probe(args, result)`` callback.
        """
        chosen = tuple(BOUNDARIES) if layers is None else tuple(layers)
        probes = probes or {}
        for layer in chosen:
            for target in BOUNDARIES[layer]:
                cls, member = _resolve(target)
                if cls is None:
                    self._patch_function(layer, member)
                else:
                    self._patch_method(
                        layer, cls, member, probe=probes.get(target)
                    )
        if "strategies" in chosen:
            for cls in strategy_classes:
                self._patch_method("strategies", cls, "post_set")
                self._patch_method("strategies", cls, "query_set")

    def uninstall(self) -> None:
        """Put every original object back (reverse order of patching)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- reading back ---------------------------------------------------------

    def layer_totals(self, repetition: int) -> Dict[str, List[int]]:
        """``layer -> [calls, self ns]`` over one repetition id."""
        result: Dict[str, List[int]] = {}
        for (rep, name_id), (calls, self_ns) in self.totals.items():
            if rep != repetition:
                continue
            layer = self.names[name_id].split("/", 1)[0]
            total = result.setdefault(layer, [0, 0])
            total[0] += calls
            total[1] += self_ns
        return result

    def function_totals(self, repetition: int) -> Dict[str, List[int]]:
        """``Class.method -> [calls, self ns]`` over one repetition id."""
        return {
            self.names[name_id].split("/", 1)[1]: list(total)
            for (rep, name_id), total in self.totals.items()
            if rep == repetition
        }

    def dump(self) -> Dict[str, object]:
        """The span file section: a name table plus columnar spans, with
        times as integer nanoseconds since the first span started."""
        origin = self.spans[0][1] if self.spans else 0
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "repetition"],
            "names": list(self.names),
            "spans": [
                [name_id, start - origin, end - origin, parent, repetition]
                for name_id, start, end, parent, repetition in self.spans
            ],
        }
