"""Small utilities shared by the CLI, the paper table and the examples.

Plain-text table formatting (rows read the way the paper's tables do), the
matrix-sweep report text, and a power-law fit used to check asymptotic
claims (e.g. that measured cost grows like ``sqrt(n)``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return title + "\n(empty)" if title else "(empty)"
    headers = list(rows[0].keys())
    columns = {header: [str(row.get(header, "")) for row in rows] for header in headers}
    widths = {
        header: max(len(header), *(len(value) for value in columns[header]))
        for header in headers
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[header]) for header in headers))
    lines.append("  ".join("-" * widths[header] for header in headers))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(header, "")).ljust(widths[header]) for header in headers)
        )
    return "\n".join(lines)


def render_matrix_report(report) -> str:
    """A matrix report as the standard four-section sweep text.

    Per-cell rows, the by-strategy and by-fault-regime slices, then the
    availability floor and the canonical digest (worker-count independent,
    so two printouts of the same grid are comparable at a glance).  Shared
    by ``python -m repro matrix`` and ``examples/matrix_sweep.py``.
    """
    sections = [
        f"== {len(report)} cells "
        f"({len(report.skipped)} skipped as incompatible) ==\n",
        format_table(report.table()),
        "\n== by strategy ==\n",
        format_table([
            {"strategy": label, **aggregate}
            for label, aggregate in report.by_strategy().items()
        ]),
        "\n== by fault regime ==\n",
        format_table([
            {"regime": label, **aggregate}
            for label, aggregate in report.by_regime().items()
        ]),
        f"\navailability floor (worst cell): "
        f"{report.availability_floor():.3f}",
        f"report digest (worker-count independent): {report.digest()}",
    ]
    return "\n".join(sections)


def fit_power_law(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares fit ``y = a·x^b`` in log-log space; returns ``(a, b)``.

    Used to check scaling claims: the exponent ``b`` of measured cost vs ``n``
    should be ≈ 0.5 for the 2·sqrt(n) strategies, ≈ (d-1)/d for d-dimensional
    meshes, ≈ 1 for broadcast, and so on.
    """
    filtered = [(x, y) for x, y in points if x > 0 and y > 0]
    if len(filtered) < 2:
        raise ValueError("need at least two positive points to fit")
    logs = [(math.log(x), math.log(y)) for x, y in filtered]
    mean_x = sum(lx for lx, _ in logs) / len(logs)
    mean_y = sum(ly for _, ly in logs) / len(logs)
    numerator = sum((lx - mean_x) * (ly - mean_y) for lx, ly in logs)
    denominator = sum((lx - mean_x) ** 2 for lx, _ in logs)
    if denominator == 0:
        raise ValueError("all x values are identical")
    b = numerator / denominator
    a = math.exp(mean_y - b * mean_x)
    return a, b
