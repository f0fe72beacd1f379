"""Opt-in wall-clock phase timing for matrix runs.

Where a span answers "where do the *hops* go", a profile answers "where
does the *wall clock* go": topology construction, routing-table builds,
surviving-table (plan-cache) warming, per-cell runs, the spool merge.  A
:class:`PhaseProfile` accumulates seconds and entry counts per phase name;
the exec engine keeps one per worker process and the parent stitches them
into the report's ``profile`` section.

Profiles are wall-clock and therefore **nondeterministic** — the report
digest excludes them (see :meth:`MatrixReport.canonical_dict`), which the
digest-stability tests pin.

Deep layers (the simulator's routing-table build, the planner's
surviving-table build) are instrumented with the module-level
:func:`phase` context manager, which no-ops unless a profile is active —
mirroring the span tracer's active-instance pattern.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional

#: Canonical phase names used across the stack.
TOPOLOGY_BUILD = "topology-build"
ROUTING_TABLE = "routing-table"
PLAN_CACHE_WARM = "plan-cache-warm"
CELL_RUN = "cell-run"
SPOOL_MERGE = "spool-merge"
CACHE_WARMUP = "cache-warmup"


class PhaseProfile:
    """Accumulated wall-clock seconds and entry counts, per phase."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Charge ``seconds`` of wall clock (and ``count`` entries) to
        ``name``."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + count

    @contextmanager
    def phase(self, name: str):
        """Time the ``with`` body against ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def seconds(self, name: str) -> float:
        """Wall-clock seconds charged to ``name`` so far."""
        return self._seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        """Entries recorded against ``name`` so far."""
        return self._counts.get(name, 0)

    def merge(self, other: "PhaseProfile") -> None:
        """Fold another profile's phases into this one."""
        for name, seconds in other._seconds.items():
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        for name, count in other._counts.items():
            self._counts[name] = self._counts.get(name, 0) + count

    def __bool__(self) -> bool:
        return bool(self._seconds)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form: per-phase ``{seconds, count}``, phases sorted."""
        return {
            "label": self.label,
            "phases": {
                name: {
                    "seconds": round(self._seconds[name], 6),
                    "count": self._counts.get(name, 0),
                }
                for name in sorted(self._seconds)
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PhaseProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        profile = cls(label=str(data.get("label", "")))
        for name, entry in data.get("phases", {}).items():
            profile.add(
                name, float(entry.get("seconds", 0.0)),
                int(entry.get("count", 0)),
            )
        return profile


def wall_clock() -> float:
    """The declared wall-clock read for measurement plumbing.

    Digest-cone code that needs a wall-clock reading (the driver's
    ``wall_seconds``, which ``canonical_dict`` zeroes) takes it from here
    instead of calling ``time.perf_counter()`` inline.  The static analyzer
    knows this helper by name (``wall_clock_helpers`` in its config): calls
    to it are allowed anywhere, while raw clock reads in the digest cone
    still raise DET001 — one declared doorway instead of per-call-site
    pragmas.
    """
    return time.perf_counter()


# -- the active profile -------------------------------------------------------

_ACTIVE: Optional[PhaseProfile] = None


@contextmanager
def profiling(profile: Optional[PhaseProfile]):
    """Install ``profile`` for the ``with`` body (``None`` = no-op)."""
    global _ACTIVE
    previous = _ACTIVE
    if profile is not None:
        _ACTIVE = profile
    try:
        yield profile
    finally:
        _ACTIVE = previous


@contextmanager
def phase(name: str):
    """Time the ``with`` body against ``name`` on the active profile.

    When no profile is active this is a plain passthrough — the phases
    instrumented with it (routing-table builds, plan warming) run a few
    times per topology, not per message, so the disabled cost is noise.
    """
    profile = _ACTIVE
    if profile is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        profile.add(name, time.perf_counter() - started)
