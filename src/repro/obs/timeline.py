"""Virtual-time windowed telemetry: the :class:`Timeline` instrument.

Percentiles compress a whole run into one number; a *timeline* keeps the
run's shape.  A :class:`Timeline` splits the virtual clock into fixed-width
windows (SimKernel microseconds, never wall clock) and holds counter-shaped
fields per window — admitted/dropped messages, served requests, latency
sums, depth peaks — so a burst that melts p99 for 50ms shows up as three
hot windows, not a smeared percentile.  The code that observes the run
tallies per window itself and writes once: :meth:`Timeline.from_dump`
builds the run's windows, :meth:`Timeline.merge` folds them in.

Merging follows the registry's algebra: two timelines with the same window
width merge window-by-window, summing every field except those whose name
ends in ``_max`` or ``_peak``, which merge by ``max``.  Both operations are
associative and commutative with the empty timeline as identity, so
per-cell timelines fold across matrix shards in any grouping and the
totals match a sequential run exactly — the same contract every other
instrument in :mod:`repro.obs.registry` honors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Field-name suffixes that merge by ``max`` instead of summing.
_MAX_SUFFIXES = ("_max", "_peak")


def _merges_by_max(field: str) -> bool:
    """Whether ``field`` carries a level (max-merge) or a count (sum)."""
    return field.endswith(_MAX_SUFFIXES)


class Timeline:
    """Fixed-width virtual-time windows of integer counters.

    ``width_us`` is the window width in integer microseconds; an
    observation at virtual time ``t`` belongs to window ``t // width_us``.
    Only windows something happened in exist, so a mostly-idle run stays
    small.
    """

    __slots__ = ("_width_us", "_windows")

    def __init__(self, width_us: int) -> None:
        if width_us < 1:
            raise ValueError("window width must be at least 1 microsecond")
        self._width_us = int(width_us)
        self._windows: Dict[int, Dict[str, int]] = {}

    @property
    def width_us(self) -> int:
        """The window width in microseconds."""
        return self._width_us

    def __len__(self) -> int:
        return len(self._windows)

    def windows(self) -> List[Tuple[int, Dict[str, int]]]:
        """Sorted ``(window_index, fields)`` pairs; fields key-sorted."""
        return [
            (index, {key: self._windows[index][key]
                     for key in sorted(self._windows[index])})
            for index in sorted(self._windows)
        ]

    def total(self, field: str) -> int:
        """``field`` summed (or maxed, per its suffix) over all windows."""
        values = [w[field] for w in self._windows.values() if field in w]
        if not values:
            return 0
        return max(values) if _merges_by_max(field) else sum(values)

    def merge(self, other: "Timeline") -> None:
        """Fold another timeline in — associative and commutative.

        Only timelines with an identical window width merge (like fixed
        histograms and their bucket layouts): summing 500ms windows into
        100ms windows would silently misattribute every count.
        """
        if self._width_us != other._width_us:
            raise ValueError(
                f"cannot merge timelines with different window widths "
                f"({self._width_us}us vs {other._width_us}us)"
            )
        for index, fields in other._windows.items():
            window = self._windows.setdefault(index, {})
            for field, value in fields.items():
                if _merges_by_max(field):
                    window[field] = max(window.get(field, 0), value)
                else:
                    window[field] = window.get(field, 0) + value

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity, JSON-safe form (windows sorted, keys sorted)."""
        return {
            "type": "timeline",
            "width_us": self._width_us,
            "windows": [
                [index, fields] for index, fields in self.windows()
            ],
        }

    @classmethod
    def from_dump(cls, data: Dict[str, object]) -> "Timeline":
        """Rebuild a timeline from :meth:`to_dict` output."""
        timeline = cls(int(data["width_us"]))
        for index, fields in data.get("windows", []):
            timeline._windows[int(index)] = {
                str(key): int(value) for key, value in fields.items()
            }
        return timeline
