"""Readers behind ``python -m repro obs``: summarize and diff exports.

Both commands work entirely off the on-disk export layout
(:mod:`repro.obs.export`) — merged metric totals, span-derived hop
breakdowns, per-worker phase profiles — so they can inspect a run that
happened in another process, on another machine, or last week.  Everything
returned is a deterministic, JSON-safe dictionary; the render helpers turn
those into the fixed-width text the CLI prints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .export import (
    cache_stats_path,
    load_all_spans,
    load_cache_stats,
    load_metrics,
    load_profiles,
    metrics_path,
    profile_path,
    profiles_dict,
    span_breakdown,
)
from .registry import Histogram, merge_registries
from .timeline import Timeline


def _timeline_summary(payload: Dict[str, object]) -> Dict[str, object]:
    """A serialized timeline compressed to window count plus field totals
    (summed or maxed per the field's merge suffix)."""
    timeline = Timeline.from_dump(payload)
    fields = sorted({
        field for _, window in timeline.windows() for field in window
    })
    out: Dict[str, object] = {
        "windows": len(timeline), "width_us": timeline.width_us,
    }
    for field in fields:
        out[field] = timeline.total(field)
    return out


def _registry_summary(serialized: Dict[str, object]) -> Dict[str, object]:
    """A compact, readable summary of one serialized registry.

    Counters and gauges flatten to their value; histograms re-derive their
    dashboard summary (count/mean/percentiles) from the full-fidelity dump;
    counter families compress to total count and distinct-key count;
    timelines compress to window count plus field totals.
    """
    out: Dict[str, object] = {}
    for name, payload in serialized.items():
        kind = payload.get("type")
        if kind in ("counter", "gauge"):
            out[name] = payload["value"]
        elif kind == "histogram":
            out[name] = Histogram.from_dump(payload).to_dict()
        elif kind == "counter_map":
            counts = payload.get("counts", {})
            out[name] = {"total": sum(counts.values()), "keys": len(counts)}
        elif kind == "timeline":
            out[name] = _timeline_summary(payload)
        else:  # pragma: no cover - registry serializes only the above
            out[name] = payload
    return out


#: Instrument names a timed run (``repro.simtime``) registers; the
#: summarizer lifts them out of the flat metrics section into their own
#: ``latency`` section, with the p99.9 tail the time model exists to show.
_TIMED_INSTRUMENTS = (
    "request_latency_us", "queue_wait_us", "queue_depth",
    "message_timeouts", "link_busy_us", "virtual_time_us",
    "timeline", "critical_path_us",
)


def _latency_section(
    serialized: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """The timed-run instruments as one section, or ``None`` if the export
    came from untimed runs (the instruments only exist when a time model
    was attached)."""
    if "request_latency_us" not in serialized:
        return None
    return _registry_summary({
        name: serialized[name]
        for name in _TIMED_INSTRUMENTS if name in serialized
    })


def summarize_export(directory) -> Dict[str, object]:
    """Digest one export directory: metrics, span breakdowns, profiles.

    Sections are independent — a spans-only or metrics-only directory
    summarizes fine; a directory with neither is an error, not an empty
    answer.  Exports from timed runs additionally get a ``latency``
    section (request latency, queue waits and depths, timeouts, link
    utilization inputs); untimed exports have no such key.
    """
    directory = Path(directory)
    out: Dict[str, object] = {}
    m_path = metrics_path(directory)
    if m_path.exists():
        entries = load_metrics(m_path)
        merged = merge_registries(registry for _, registry in entries)
        out["cells"] = len(entries)
        serialized = merged.to_dict()
        latency = _latency_section(serialized)
        if latency is not None:
            for name in _TIMED_INSTRUMENTS:
                serialized.pop(name, None)
            out["latency"] = latency
        out["metrics"] = _registry_summary(serialized)
    span_sets = load_all_spans(directory)
    if span_sets:
        out["spans"] = span_breakdown(span_sets)
    p_path = profile_path(directory)
    if p_path.exists():
        out["profile"] = profiles_dict(load_profiles(p_path))
    c_path = cache_stats_path(directory)
    if c_path.exists():
        out["cache"] = load_cache_stats(c_path)
    if not out:
        raise ValueError(
            f"{directory} holds no observability export "
            f"(no metrics.jsonl, spans-*.jsonl or profile.json)"
        )
    return out


def _diff_tree(a: object, b: object) -> Optional[object]:
    """Recursive numeric diff ``b - a``; ``None`` prunes equal subtrees.

    Dicts diff key-by-key over the key union (a missing side counts as 0
    for numbers); numeric leaves become their delta; non-numeric leaves
    surface as ``{"a": ..., "b": ...}`` when they differ.
    """
    if isinstance(a, dict) or isinstance(b, dict):
        a = a if isinstance(a, dict) else {}
        b = b if isinstance(b, dict) else {}
        out = {}
        for key in sorted(set(a) | set(b), key=str):
            delta = _diff_tree(a.get(key), b.get(key))
            if delta is not None:
                out[key] = delta
        return out or None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num or b_num:
        delta = (b or 0) - (a or 0)
        return round(delta, 6) if delta else None
    if a != b:
        return {"a": a, "b": b}
    return None


def diff_exports(dir_a, dir_b) -> Dict[str, object]:
    """Numeric deltas (``b - a``) between two export summaries.

    Profiles are deliberately left out: wall-clock deltas between two runs
    measure the machines, not the change under test.  An empty ``metrics``/
    ``spans`` section means the two exports agree exactly there.
    """
    summary_a = summarize_export(dir_a)
    summary_b = summarize_export(dir_b)
    return {
        "cells": {
            "a": summary_a.get("cells", 0), "b": summary_b.get("cells", 0),
        },
        "metrics": _diff_tree(
            summary_a.get("metrics", {}), summary_b.get("metrics", {})
        ) or {},
        "latency": _diff_tree(
            summary_a.get("latency", {}), summary_b.get("latency", {})
        ) or {},
        "spans": _diff_tree(
            summary_a.get("spans", {}), summary_b.get("spans", {})
        ) or {},
    }


# -- text rendering -----------------------------------------------------------


def _format_value(value: object) -> str:
    if isinstance(value, dict):
        return "  ".join(f"{key}={value[key]}" for key in value)
    return str(value)


def _section(title: str, rows: Dict[str, object], lines: List[str]) -> None:
    lines.append(f"{title}:")
    if not rows:
        lines.append("  (no differences)")
        return
    width = max(len(str(name)) for name in rows)
    for name in rows:
        lines.append(f"  {str(name):<{width}}  {_format_value(rows[name])}")


def render_summary(summary: Dict[str, object]) -> str:
    """The ``obs summarize`` text report."""
    lines: List[str] = []
    if "cells" in summary:
        lines.append(f"cells: {summary['cells']}")
    if "profile" in summary:
        lines.append("profile:")
        for label, phases in summary["profile"].items():
            lines.append(f"  {label}:")
            width = max(len(name) for name in phases) if phases else 0
            for name in sorted(phases):
                entry = phases[name]
                lines.append(
                    f"    {name:<{width}}  {entry['seconds']:.6f}s"
                    f"  x{entry['count']}"
                )
    if "cache" in summary:
        _section("cache", summary["cache"], lines)
    if "metrics" in summary:
        _section("metrics", summary["metrics"], lines)
    if "latency" in summary:
        _section("latency", summary["latency"], lines)
    if "spans" in summary:
        _section("spans", summary["spans"], lines)
    return "\n".join(lines)


def _is_change_leaf(value: object) -> bool:
    """Whether a delta-tree node is a non-numeric ``{"a", "b"}`` change."""
    return isinstance(value, dict) and set(value) == {"a", "b"}


def _flatten_delta(tree: Dict[str, object], prefix: str = "") -> Dict[str, object]:
    """A delta tree as flat ``parent.child`` rows, order preserved.

    Nested sections (``request_latency_us.p99``, ``queues.wait_us.p95``)
    become single aligned rows instead of one opaque dict-per-line.
    """
    rows: Dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict) and not _is_change_leaf(value):
            rows.update(_flatten_delta(value, path))
        else:
            rows[path] = value
    return rows


def _lookup(summary: Optional[Dict[str, object]], path: str) -> object:
    """The value at a flattened ``parent.child`` path, or ``None``."""
    node: object = summary
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _diff_section(
    title: str,
    tree: Dict[str, object],
    summary_a: Optional[Dict[str, object]],
    summary_b: Optional[Dict[str, object]],
    lines: List[str],
) -> None:
    """One diff section: flattened rows, aligned before/after columns.

    With both summaries available every row reads ``name  a -> b  (delta)``;
    without them only the delta prints (the JSON path's information)."""
    lines.append(f"{title}:")
    rows = _flatten_delta(tree)
    if not rows:
        lines.append("  (no differences)")
        return
    with_context = summary_a is not None and summary_b is not None
    table: List[Tuple[str, str, str, str]] = []
    for path, delta in rows.items():
        if _is_change_leaf(delta):
            table.append((path, str(delta["a"]), str(delta["b"]), ""))
        elif with_context:
            value_a = _lookup(summary_a, path)
            value_b = _lookup(summary_b, path)
            table.append((
                path,
                "-" if value_a is None else str(value_a),
                "-" if value_b is None else str(value_b),
                f"({delta:+,})",
            ))
        else:
            table.append((path, "", "", f"{delta:+,}"))
    name_w = max(len(row[0]) for row in table)
    a_w = max(len(row[1]) for row in table)
    b_w = max(len(row[2]) for row in table)
    for path, a_text, b_text, delta_text in table:
        if a_text or b_text:
            line = (
                f"  {path:<{name_w}}  {a_text:>{a_w}} -> {b_text:<{b_w}}"
                f"  {delta_text}"
            )
        else:
            line = f"  {path:<{name_w}}  {delta_text}"
        lines.append(line.rstrip())


def render_diff(
    diff: Dict[str, object],
    before: Optional[Dict[str, object]] = None,
    after: Optional[Dict[str, object]] = None,
) -> str:
    """The ``obs diff`` text report (deltas are ``b - a``).

    Pass the two exports' summaries as ``before``/``after`` to print each
    changed value's actual before/after next to its delta — the CLI does;
    without them rows carry the delta alone."""
    cells = diff.get("cells", {})
    lines = [f"cells: a={cells.get('a', 0)} b={cells.get('b', 0)}"]
    for section, title in (
        ("metrics", "metrics delta (b - a)"),
        ("latency", "latency delta (b - a)"),
        ("spans", "spans delta (b - a)"),
    ):
        tree = diff.get(section) or {}
        if section == "latency" and not tree:
            continue
        _diff_section(
            title, tree,
            before.get(section) if before else None,
            after.get(section) if after else None,
            lines,
        )
    return "\n".join(lines)
