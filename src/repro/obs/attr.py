"""Tail-latency attribution: who actually carries the p99.

A timed run's ``critical_path_us`` counter family already blames every
request's barrier-defining segments on ``phase:kind:where`` contributor
keys (see :mod:`repro.simtime.binding`); the exported ``timeline`` records
keep the slowest-k requests whole.  This module turns both into answers:

* :func:`attribute_export` ranks contributors over *all* requests (the
  mean story) and over the exemplar tail (the p99 story) — "queue wait on
  the rendezvous node is 61% of p99" is one row of its output;
* :func:`diff_attribution` explains a regression between two exports as a
  ranked delta of contributor microseconds — what got slower, where;
* the render helpers print the fixed-width tables behind
  ``python -m repro obs attribute`` and ``obs diff --attribute``.

Everything reads the on-disk export through
:func:`~repro.obs.export.load_export` only, so attribution works on a run
from another machine — and is byte-deterministic, because the export is.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .export import load_export
from .tools import merged_registry

#: Contributor rows shown by default.
DEFAULT_TOP = 10


def rank_contributors(
    counts: Dict[str, int], top: Optional[int] = DEFAULT_TOP
) -> List[Dict[str, object]]:
    """Contributors ranked by blamed microseconds, with total shares.

    Rows sort by descending microseconds, then key (total order); each
    carries ``share`` — its fraction of all blamed time.  ``top=None``
    keeps every row.
    """
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    if top is not None:
        ranked = ranked[:top]
    return [
        {
            "key": key,
            "us": us,
            "share": round(us / total, 4) if total else 0.0,
        }
        for key, us in ranked
    ]


def _tail_counts(exemplars: List[Dict[str, object]]) -> Dict[str, int]:
    """Critical-path microseconds per contributor over exemplar requests."""
    counts: Dict[str, int] = {}
    for record in exemplars:
        for phase, kind, where, us in record.get("critical_path", []):
            key = f"{phase}:{kind}:{where}"
            counts[key] = counts.get(key, 0) + int(us)
    return counts


def attribute_export(
    directory, top: Optional[int] = DEFAULT_TOP
) -> Dict[str, object]:
    """The attribution report for one export directory.

    ``overall`` ranks contributors across every priced request;
    ``tail`` ranks them across the exported exemplars only — the
    slowest-k requests per cell, i.e. the p99-and-beyond population the
    time model exists to explain.  Both blocks carry totals so shares
    re-derive; ``latency`` restates the merged p50/p99/p999 for context.

    Raises ``ValueError`` when the export came from untimed runs (there
    is nothing to attribute without a virtual clock).
    """
    records = load_export(directory)
    if not records["metrics"]:
        raise ValueError(f"{directory} holds no metrics records to attribute")
    merged = merged_registry(records)
    if "critical_path_us" not in merged:
        raise ValueError(
            f"{directory} has no critical-path data — the export came from "
            f"untimed runs (attach a time model to attribute latency)"
        )
    overall = dict(merged.counter_map("critical_path_us"))
    exemplars = records["timeline"]
    tail = _tail_counts(exemplars)
    out: Dict[str, object] = {
        "overall": {
            "total_us": sum(overall.values()),
            "contributors": rank_contributors(overall, top),
        },
        "tail": {
            "exemplars": len(exemplars),
            "total_us": sum(tail.values()),
            "contributors": rank_contributors(tail, top),
        },
    }
    if "request_latency_us" in merged:
        latency = merged.histogram("request_latency_us")
        out["latency"] = {
            "count": latency.count,
            "p50": latency.percentile(50),
            "p99": latency.percentile(99),
            "p999": latency.percentile(99.9),
        }
    return out


def diff_attribution(
    dir_a, dir_b, top: Optional[int] = DEFAULT_TOP
) -> Dict[str, object]:
    """A regression between two exports as ranked contributor deltas.

    Rows cover the union of contributors, sorted by descending
    ``delta_us`` magnitude (the biggest mover first, whichever direction),
    each with both sides' microseconds and shares — the decomposition a
    single p99 delta can't give.
    """
    a = attribute_export(dir_a, top=None)
    b = attribute_export(dir_b, top=None)

    def _by_key(block: Dict[str, object]) -> Dict[str, Dict[str, object]]:
        return {row["key"]: row for row in block["contributors"]}

    out: Dict[str, object] = {}
    for section in ("overall", "tail"):
        rows_a = _by_key(a[section])
        rows_b = _by_key(b[section])
        union = sorted(set(rows_a) | set(rows_b))
        deltas = []
        for key in union:
            us_a = rows_a.get(key, {}).get("us", 0)
            us_b = rows_b.get(key, {}).get("us", 0)
            if us_a == us_b:
                continue
            deltas.append({
                "key": key,
                "a_us": us_a,
                "b_us": us_b,
                "delta_us": us_b - us_a,
                "a_share": rows_a.get(key, {}).get("share", 0.0),
                "b_share": rows_b.get(key, {}).get("share", 0.0),
            })
        deltas.sort(key=lambda row: (-abs(row["delta_us"]), row["key"]))
        if top is not None:
            deltas = deltas[:top]
        out[section] = {
            "a_total_us": a[section]["total_us"],
            "b_total_us": b[section]["total_us"],
            "contributors": deltas,
        }
    if "latency" in a and "latency" in b:
        out["latency"] = {
            "a": a["latency"], "b": b["latency"],
            "delta_p99_us": b["latency"]["p99"] - a["latency"]["p99"],
        }
    return out


# -- text rendering -----------------------------------------------------------


def _contributor_table(
    rows: List[Dict[str, object]], lines: List[str]
) -> None:
    if not rows:
        lines.append("  (no contributors)")
        return
    width = max(len(str(row["key"])) for row in rows)
    for row in rows:
        lines.append(
            f"  {str(row['key']):<{width}}  {row['us']:>12,} us"
            f"  {100 * row['share']:6.2f}%"
        )


def render_attribution(attribution: Dict[str, object]) -> str:
    """The ``obs attribute`` text report."""
    lines: List[str] = []
    latency = attribution.get("latency")
    if latency:
        lines.append(
            f"latency: count={latency['count']}  p50={latency['p50']}us"
            f"  p99={latency['p99']}us  p999={latency['p999']}us"
        )
    overall = attribution["overall"]
    lines.append(
        f"critical path, all requests (total {overall['total_us']:,} us):"
    )
    _contributor_table(overall["contributors"], lines)
    tail = attribution["tail"]
    lines.append(
        f"critical path, slowest {tail['exemplars']} exemplars "
        f"(total {tail['total_us']:,} us):"
    )
    _contributor_table(tail["contributors"], lines)
    return "\n".join(lines)


def render_attribution_diff(diff: Dict[str, object]) -> str:
    """The ``obs diff --attribute`` text report (deltas are ``b - a``)."""
    lines: List[str] = []
    latency = diff.get("latency")
    if latency:
        lines.append(
            f"p99: {latency['a']['p99']}us -> {latency['b']['p99']}us"
            f"  ({latency['delta_p99_us']:+,}us)"
        )
    for section, title in (
        ("overall", "all requests"), ("tail", "exemplar tail")
    ):
        block = diff[section]
        lines.append(
            f"critical-path delta, {title} "
            f"({block['a_total_us']:,} -> {block['b_total_us']:,} us):"
        )
        rows = block["contributors"]
        if not rows:
            lines.append("  (no differences)")
            continue
        width = max(len(str(row["key"])) for row in rows)
        for row in rows:
            lines.append(
                f"  {str(row['key']):<{width}}"
                f"  {row['a_us']:>12,} -> {row['b_us']:>12,} us"
                f"  ({row['delta_us']:+,})"
            )
    return "\n".join(lines)
