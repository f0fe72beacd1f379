"""JSONL export of spans and metrics — the on-disk observability artifact.

One matrix (or single-scenario) run with observability enabled produces an
*export directory*:

``spans-cell-NNNN.jsonl``
    the driver's span tree for grid cell ``NNNN`` (logical-clock stamped,
    byte-deterministic);
``spans-shard-NNN.jsonl`` / ``spans-merge.jsonl``
    the exec engine's own spans: one ``shard`` span per worker wrapping its
    ``cell-run`` children, and the parent's ``merge`` span;
``metrics.jsonl``
    one line per cell — grid coordinates plus the cell's full
    :class:`~repro.obs.registry.MetricsRegistry` dump (histogram buckets
    included, so any percentile re-derives exactly);
``timelines-cell-NNNN.jsonl``
    the slowest-k exemplar request timelines of a *timed* cell (one JSON
    record per request: batches, segments, critical path — see
    :mod:`repro.simtime.binding`); untimed cells write no such file;
``profile.json``
    per-worker wall-clock phase profiles, only when profiling was on.

``python -m repro obs summarize/diff`` consumes this layout.  File names
key on grid position and shard index, so a sharded run writes the same
cell-level file set as a sequential one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .profile import PhaseProfile
from .registry import MetricsRegistry
from .spans import Span, load_spans

METRICS_FILE = "metrics.jsonl"
PROFILE_FILE = "profile.json"
MERGE_SPANS_FILE = "spans-merge.jsonl"
CACHE_FILE = "cache.json"


def export_dir(path) -> Path:
    """``path`` as a created export directory."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def cell_span_path(directory, position: int) -> Path:
    """Where cell ``position``'s driver spans live."""
    return Path(directory) / f"spans-cell-{position:04d}.jsonl"


def shard_span_path(directory, shard_index: int) -> Path:
    """Where shard ``shard_index``'s exec-engine spans live."""
    return Path(directory) / f"spans-shard-{shard_index:03d}.jsonl"


def timeline_path(directory, position: int) -> Path:
    """Where cell ``position``'s exemplar request timelines live."""
    return Path(directory) / f"timelines-cell-{position:04d}.jsonl"


def write_timelines(path, exemplars: Iterable[Dict[str, object]]) -> None:
    """Persist one cell's exemplar timelines, one JSON record per line.

    Keys are sorted, so a sequential run and any sharded run write the
    byte-identical file for the same cell.
    """
    with open(path, "w", encoding="utf-8") as fp:
        for record in exemplars:
            fp.write(json.dumps(record, sort_keys=True) + "\n")


def load_timelines(path) -> List[Dict[str, object]]:
    """Read exemplar timelines written by :func:`write_timelines`."""
    records = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                records.append(json.loads(line))
    return records


def load_all_timelines(directory) -> List[Tuple[str, List[Dict[str, object]]]]:
    """Every timeline file in an export directory, as ``(file_name,
    records)``, sorted by name (= by grid position)."""
    out = []
    for path in sorted(Path(directory).glob("timelines-cell-*.jsonl")):
        out.append((path.name, load_timelines(path)))
    return out


def metrics_path(directory) -> Path:
    """The per-cell metrics JSONL file."""
    return Path(directory) / METRICS_FILE


def profile_path(directory) -> Path:
    """The wall-clock profile JSON file."""
    return Path(directory) / PROFILE_FILE


def cache_stats_path(directory) -> Path:
    """The cell-cache counter snapshot JSON file."""
    return Path(directory) / CACHE_FILE


def write_cache_stats(path, stats: Dict[str, int]) -> None:
    """Persist one run's cache/warm-pool counters.

    Written whenever a run had a cell cache enabled.  Note the obs export
    itself forces every cell to execute (cached entries hold no spans or
    metrics), so an exported run's counters show stores and misses, not
    hits; the hit traffic belongs to plain runs.
    """
    payload = {"cache": {key: int(stats[key]) for key in sorted(stats)}}
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_cache_stats(path) -> Dict[str, int]:
    """Read counters written by :func:`write_cache_stats`."""
    with open(path, "r", encoding="utf-8") as fp:
        payload = json.load(fp)
    return {str(key): int(value) for key, value in payload.get("cache", {}).items()}


def dump_metrics_line(
    position: int, meta: Dict[str, str], registry: MetricsRegistry
) -> str:
    """One cell's metrics as one newline-terminated JSON record."""
    record = {
        "position": position,
        **{key: meta[key] for key in sorted(meta)},
        "registry": registry.to_dict(),
    }
    return json.dumps(record, sort_keys=True) + "\n"


def write_cell_export(
    directory, position: int, meta: Dict[str, str], tracer, result, metrics_fp
) -> None:
    """Write one executed cell's share of an export directory: its span
    tree, its line of the open metrics JSONL ``metrics_fp`` and — for a
    timed cell — its exemplar timelines, all keyed on ``position``."""
    tracer.to_path(cell_span_path(directory, position))
    metrics_fp.write(
        dump_metrics_line(position, meta, result.metrics.registry)
    )
    if result.exemplars:
        write_timelines(timeline_path(directory, position), result.exemplars)


def load_metrics(path) -> List[Tuple[Dict[str, object], MetricsRegistry]]:
    """Read a metrics JSONL file: ``(meta, registry)`` per line, by
    position."""
    entries = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            if not line.strip():
                continue
            record = json.loads(line)
            registry = MetricsRegistry.from_dict(record.pop("registry", {}))
            entries.append((record, registry))
    entries.sort(key=lambda entry: entry[0].get("position", 0))
    return entries


def merged_metrics(path) -> MetricsRegistry:
    """Every cell's registry merged into one — the grid-wide totals."""
    merged = MetricsRegistry()
    for _, registry in load_metrics(path):
        merged.merge(registry)
    return merged


def write_profiles(path, profiles: Iterable[PhaseProfile]) -> None:
    """Persist per-worker profiles as one JSON document."""
    payload = {"workers": [profile.to_dict() for profile in profiles]}
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_profiles(path) -> List[PhaseProfile]:
    """Read profiles written by :func:`write_profiles`."""
    with open(path, "r", encoding="utf-8") as fp:
        payload = json.load(fp)
    return [PhaseProfile.from_dict(entry) for entry in payload.get("workers", [])]


def profiles_dict(profiles: Iterable[PhaseProfile]) -> Dict[str, object]:
    """Per-worker profiles keyed by label — the report's ``profile``
    section."""
    out: Dict[str, object] = {}
    for profile in profiles:
        entry = profile.to_dict()
        out[entry.pop("label") or f"worker-{len(out)}"] = entry["phases"]
    return out


def load_all_spans(directory) -> List[Tuple[str, List[Span]]]:
    """Every span file in an export directory, as ``(file_name, spans)``.

    Files sort by name, which orders cells by position and shards by
    index — a deterministic whole-run span inventory.
    """
    out = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        out.append((path.name, load_spans(path)))
    return out


def span_breakdown(
    span_sets: Iterable[Tuple[str, List[Span]]],
    attr: str = "hops",
    group_by: Optional[str] = "category",
) -> Dict[str, Dict[str, int]]:
    """Aggregate spans by name: counts plus summed ``attr``.

    Span names with a ``group_by`` attribute split into per-value rows
    (``deliver[post]``, ``deliver[query]``...), which is the hop breakdown
    the summarize command prints.
    """
    table: Dict[str, Dict[str, int]] = {}
    for _, spans in span_sets:
        for span in spans:
            name = span.name
            if group_by and group_by in span.attrs:
                name = f"{name}[{span.attrs[group_by]}]"
            row = table.setdefault(name, {"count": 0, attr: 0})
            row["count"] += 1
            value = span.attrs.get(attr)
            if isinstance(value, (int, float)):
                row[attr] += int(value)
    return {name: table[name] for name in sorted(table)}
