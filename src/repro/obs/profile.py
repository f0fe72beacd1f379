"""Opt-in wall-clock phase timing for matrix runs.

Where a span answers "where do the *hops* go", a profile answers "where
does the *wall clock* go": topology construction, per-cell runs, cache
warm-up replays, the spool merge.  A :class:`PhaseProfile` accumulates
seconds and entry counts per phase name; the exec engine's cell loop
(:func:`repro.exec.runner.run_shard`) owns one per shard and hands it to
whatever it times, the parent owns one for the merge, and the parent
stitches them into the report's ``profile`` section.

Profiles are wall-clock and therefore **nondeterministic** — the report
digest excludes them (see :meth:`MatrixReport.canonical_dict`), which the
digest-stability tests pin.

Profiled code reads the clock only through :meth:`PhaseProfile.phase` —
or :func:`timed`, when the profile it was handed may be ``None``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Dict, Optional

#: Canonical phase names used across the stack.
TOPOLOGY_BUILD = "topology-build"
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


def timed(profile: Optional[PhaseProfile], name: str) -> ContextManager:
    """``profile.phase(name)``, or a context that reads no clock when
    ``profile`` is ``None`` (profiling off)."""
    return nullcontext() if profile is None else profile.phase(name)
