"""Host metadata stamped onto persisted benchmark reports.

Wall-clock benchmark numbers are only interpretable next to the machine
that produced them; the perf ledger (``benchmarks/ledger/run.py``) puts
this record under ``"host"`` in every report it writes, so a reader can
tell a real regression from a slower host.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional


def host_metadata(workers: Optional[int] = None) -> Dict[str, object]:
    """The recording host: platform, Python, CPU count — plus the worker
    count for parallel benchmarks."""
    meta: Dict[str, object] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    if workers is not None:
        meta["workers"] = workers
    return meta
