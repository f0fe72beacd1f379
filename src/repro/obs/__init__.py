"""``repro.obs`` — the observability layer: spans, metrics, profiles.

The simulator's results were always deterministic; this package makes them
*inspectable* without breaking that:

* :mod:`~repro.obs.spans` — hierarchical span tracing (``locate`` →
  ``rendezvous-resolve`` → ``deliver``/``route``; ``shard`` →
  ``cell-run``; ``merge``) with logical-clock timestamps injected by the
  workload driver, so traces are seed-deterministic and never perturb a
  digest;
* :mod:`~repro.obs.registry` — named counters, gauges and exact/fixed-
  bucket histograms with an associative ``merge()``; per-cell metrics
  merge exactly like matrix cells do;
* :mod:`~repro.obs.profile` — opt-in wall-clock phase timing (topology
  builds, cell runs, cache warm-up replays, spool merge), surfaced per
  worker and explicitly excluded from report digests;
* :mod:`~repro.obs.export` — the ``--obs`` export: JSONL files of
  ``{"kind": ...}`` records (spans, cell metrics, exemplar timelines,
  profiles, cache counters) behind one writer and the one loader
  ``python -m repro obs summarize``/``diff``/``attribute`` read through.

Everything here is off by default, and nothing is looked up: a tracer or
profile is handed down by its owner (the driver binds its tracer to the
network for one run; the exec engine passes each shard's profile to what
it times), so with both off the instrumented hot paths cost one ``is None``
test of an attribute or argument.
"""

from .export import export_dir, load_export, write_records
from .host import host_metadata
from .profile import CELL_RUN, SPOOL_MERGE, TOPOLOGY_BUILD, PhaseProfile
from .registry import (
    Counter,
    CounterMap,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from .spans import Span, SpanRecorder
from .timeline import Timeline

__all__ = [
    "CELL_RUN",
    "Counter",
    "CounterMap",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfile",
    "SPOOL_MERGE",
    "Span",
    "SpanRecorder",
    "TOPOLOGY_BUILD",
    "Timeline",
    "export_dir",
    "host_metadata",
    "load_export",
    "merge_registries",
    "write_records",
]
