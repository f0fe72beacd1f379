"""Message conservation, checked over plain counter dicts.

Every point-to-point message occurrence is either delivered to its
destination or dropped: ``sent = delivered + dropped`` per category.  The
counters come in as the three ``category -> count`` mappings a network's
ledger keeps (messages sent, delivered, dropped).  Flood-style broadcast
sends one message to many receivers and is out of scope, so only the
per-destination categories are checked by default.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Mapping, Tuple


def growth(stats, before) -> Dict[str, Dict[str, int]]:
    """Each counter family's non-zero growth since ``before`` (a snapshot
    of the same ledger; counters only grow), as plain dicts."""
    families = ("hops", "messages", "node_load", "plan_events", "delivered", "dropped")
    return {f: dict(Counter(getattr(stats, f)) - Counter(getattr(before, f))) for f in families}


def read_ledger(stats) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
    """``(sent, delivered, dropped)`` of a network's ledger, copied once."""
    return dict(stats.messages), dict(stats.delivered), dict(stats.dropped)


def conservation_violations(
    sent: Mapping[str, int],
    delivered: Mapping[str, int],
    dropped: Mapping[str, int],
    categories: Iterable[str] = ("post", "query"),
) -> Dict[str, Tuple[int, int, int]]:
    """``{category: (sent, delivered, dropped)}`` for every category where
    ``sent != delivered + dropped`` — empty when the law holds."""
    violations = {}
    for category in categories:
        counts = (
            sent.get(category, 0), delivered.get(category, 0), dropped.get(category, 0)
        )
        if counts[0] != counts[1] + counts[2]:
            violations[category] = counts
    return violations
