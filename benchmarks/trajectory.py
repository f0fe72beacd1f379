#!/usr/bin/env python
"""The bench-trajectory regression gate.

``BENCH_workload.json`` accumulates the headline numbers of the E15-E21
benchmarks PR after PR; this script turns that record into a CI gate.  It
compares every tracked metric against ``trajectory_baseline.json`` (the
committed snapshot of the last accepted trajectory) under a per-metric
tolerance band and exits non-zero when any metric regresses beyond its
band.

Deterministic metrics — hop percentiles, availability, cache behaviour —
get tight bands (often zero: they only move when the simulation's
semantics move, and such a move must be deliberate).  Wall-clock metrics
— ops/second, planner and parallel speedups — get wide bands, because CI
machines are not the recording host; they catch collapses, not noise.

Usage::

    python benchmarks/trajectory.py             # gate against the baseline
    python benchmarks/trajectory.py --update    # accept the current numbers

After a deliberate perf-affecting change, rerun the full benchmarks and
commit the ``--update``\\ d baseline alongside the change.

Exit status: 0 when every tracked metric is inside its band, 1 on any
regression, 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BENCH = ROOT / "BENCH_workload.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "trajectory_baseline.json"

#: Wide band for wall-clock metrics: CI hosts differ from the recording
#: host, so only a collapse (here: losing more than 70%) fails the gate.
WALL_CLOCK_TOLERANCE = 0.70

#: Every gated metric: dotted path into BENCH_workload.json, the direction
#: that counts as *better*, and the relative tolerance before a worse value
#: fails.  ``lower`` fails when value > baseline * (1 + tol); ``higher``
#: fails when value < baseline * (1 - tol); ``equal`` (a count with no
#: better direction) fails when value leaves baseline * (1 +/- tol).
TRACKED: Tuple[Tuple[str, str, float], ...] = (
    # E15 — the workload engine under production traffic.
    ("strategies.checkerboard.p95_locate_hops", "lower", 0.0),
    ("strategies.checkerboard.p99_locate_hops", "lower", 0.0),
    ("strategies.checkerboard.load_imbalance", "lower", 0.05),
    ("strategies.checkerboard.ops_per_second", "higher", WALL_CLOCK_TOLERANCE),
    ("strategies.centralized.p95_locate_hops", "lower", 0.0),
    ("strategies.hash-locate.p95_locate_hops", "lower", 0.0),
    ("soak.cache_hit_rate", "higher", 0.02),
    ("soak.stale_retries", "lower", 0.10),
    # E16 — the delivery planner on a faulted unicast stream.
    ("delivery_planner.stream.speedup", "higher", WALL_CLOCK_TOLERANCE),
    ("delivery_planner.workload.success_rate", "higher", 0.01),
    ("delivery_planner.workload.p95_locate_hops", "lower", 0.0),
    # E17 — the scenario-matrix engine.
    ("matrix.report.availability_floor", "higher", 0.01),
    ("matrix.plan_misses_shared", "lower", 0.10),
    # E18 — the parallel execution engine.
    ("parallel.speedup", "higher", WALL_CLOCK_TOLERANCE),
    # E19 — incremental sweeps through the cell cache.
    ("incremental.warm_speedup", "higher", WALL_CLOCK_TOLERANCE),
    ("incremental.warm_hit_rate", "higher", 0.0),
    # E20 — virtual-clock latency (repro.simtime).  Timed runs are fully
    # deterministic, so the percentiles get zero-tolerance bands; the
    # poisson p99 ratio is the headline (centralized melts, checkerboard
    # does not) and must not shrink.
    ("latency.checkerboard.poisson.p99_us", "lower", 0.0),
    ("latency.checkerboard.burst.p99_us", "lower", 0.0),
    ("latency.p99_ratio_poisson", "higher", 0.0),
    # The pricing loop's own work counts on the burst scenario: a rewrite
    # of the overlay must visit exactly as many stations and drop exactly
    # as many messages as before — on any Python version.
    ("latency.checkerboard.burst.queue_visits", "equal", 0.0),
    ("latency.checkerboard.burst.message_timeouts", "equal", 0.0),
    # E21 — tail-latency attribution.  The dominant contributor's share of
    # the critical path is a structural fact of the burst workload and
    # fully deterministic; the rendezvous bottleneck may sharpen but must
    # never fade from the attribution.
    ("attribution.top_share_tail", "higher", 0.0),
    ("attribution.top_share_overall", "higher", 0.0),
)


def lookup(data: Dict[str, object], path: str) -> Optional[float]:
    """The numeric value at dotted ``path``, or ``None`` when absent."""
    node: object = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return node


def check_trajectory(
    bench: Dict[str, object], baseline: Dict[str, object]
) -> Tuple[List[str], List[str], List[str]]:
    """Gate ``bench`` against ``baseline``.

    Returns ``(failures, passes, skips)`` as human-readable lines.  A
    metric the baseline never recorded is skipped (nothing to regress
    from); a metric the baseline has but the bench file lost is a failure —
    losing a tracked metric is itself a regression of the record.
    """
    failures: List[str] = []
    passes: List[str] = []
    skips: List[str] = []
    for path, direction, tolerance in TRACKED:
        base = lookup(baseline, path)
        if base is None:
            skips.append(f"{path}: not in baseline yet")
            continue
        value = lookup(bench, path)
        if value is None:
            failures.append(
                f"{path}: tracked metric missing (baseline recorded {base})"
            )
            continue
        note = f"{direction} is better"
        if direction == "equal":
            slack = abs(base) * tolerance
            ok = abs(value - base) <= slack
            band = f"within {slack:g} of {base:g}"
            note = "must not move"
        elif direction == "lower":
            limit = base * (1 + tolerance)
            ok = value <= limit
            band = f"<= {limit:g}"
        else:
            limit = base * (1 - tolerance)
            ok = value >= limit
            band = f">= {limit:g}"
        line = f"{path}: {value:g} (baseline {base:g}, band {band}, {note})"
        (passes if ok else failures).append(line)
    return failures, passes, skips


def build_baseline(bench: Dict[str, object]) -> Dict[str, object]:
    """The committed baseline: only the tracked metrics, as a nested dict."""
    out: Dict[str, object] = {}
    for path, _, _ in TRACKED:
        value = lookup(bench, path)
        if value is None:
            continue
        node = out
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", type=Path, default=DEFAULT_BENCH,
        help="BENCH_workload.json to gate (default: repo root copy)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed baseline to gate against",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current bench file and exit",
    )
    args = parser.parse_args(argv)
    try:
        bench = json.loads(args.bench.read_text())
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.bench}: {error}", file=sys.stderr)
        return 2
    if args.update:
        baseline = build_baseline(bench)
        args.baseline.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline ({sum(1 for _ in TRACKED)} tracked metrics) "
              f"-> {args.baseline}")
        return 0
    try:
        baseline = json.loads(args.baseline.read_text())
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.baseline}: {error}", file=sys.stderr)
        return 2
    failures, passes, skips = check_trajectory(bench, baseline)
    for line in passes:
        print(f"ok:   {line}")
    for line in skips:
        print(f"skip: {line}")
    for line in failures:
        print(f"FAIL: {line}")
    if failures:
        print(
            f"\ntrajectory gate: {len(failures)} metric(s) regressed beyond "
            f"tolerance.\nIf the change is deliberate, rerun the full "
            f"benchmarks and commit\n`python benchmarks/trajectory.py "
            f"--update`."
        )
        return 1
    print(f"\ntrajectory gate: {len(passes)} metric(s) inside their bands.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
