"""A unified metrics registry: counters, gauges and histograms that merge.

The workload layer measures everything as either a monotonically growing
count (requests, hops, plan-cache events), a level (universe size), or a
distribution of small integers (hops per locate).  This module gives each
of those one canonical instrument — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — plus :class:`MetricsRegistry`, a named collection of
instruments with an **associative, commutative** ``merge()``.  Associativity
is what lets per-cell metrics merge exactly like matrix cells do: shard
registries in any grouping, merge in any order, and the totals (and every
percentile) come out identical to a sequential run.

:class:`CounterMap` is the dict-shaped sibling: a counter *family* keyed by
an open set of labels (message categories, churn kinds, node ids).  It is a
``dict`` subclass, so existing code that reads ``stats.hops[...]`` keeps
working while merge/diff/snapshot stop being hand-rolled loops.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .timeline import Timeline


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (addition: associative, commutative)."""
        self.value += other.value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-known level.

    Merging takes the **max**, the only order-independent choice for a
    level sampled on different shards (associative and commutative, with
    the empty gauge as identity).
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """An exact histogram of small non-negative integer samples.

    By default every distinct value keeps its own bucket (hop counts are
    small integers, so percentiles cost O(distinct values), not
    O(samples)).  Pass ``buckets`` — a sorted tuple of inclusive upper
    bounds — for a fixed-bucket histogram: each sample lands in the first
    bucket whose bound contains it, and samples beyond the last bound share
    one overflow bucket.  Two histograms merge by adding bucket counts,
    which is associative and commutative with the empty histogram as
    identity; fixed-bucket histograms only merge with an identical bucket
    layout.
    """

    def __init__(self, buckets: Optional[Tuple[int, ...]] = None) -> None:
        if buckets is not None:
            buckets = tuple(buckets)
            if list(buckets) != sorted(set(buckets)):
                raise ValueError("buckets must be strictly increasing")
        self._buckets = buckets
        self._counts: Dict[int, int] = {}
        self._total = 0
        self._sum = 0

    @property
    def bucket_bounds(self) -> Optional[Tuple[int, ...]]:
        """The fixed bucket upper bounds, or ``None`` for exact mode."""
        return self._buckets

    def _slot(self, value: int) -> int:
        """The bucket key a sample of ``value`` is counted under."""
        buckets = self._buckets
        if not buckets:  # exact mode (or no bounds at all)
            return value
        index = bisect_left(buckets, value)
        # Overflow bucket: one past the last bound marks "beyond all bounds".
        return buckets[index] if index < len(buckets) else buckets[-1] + 1

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` samples of ``value``."""
        if value < 0 or count < 1:
            raise ValueError("value must be >= 0 and count >= 1")
        slot = self._slot(value) if self._buckets else value
        self._counts[slot] = self._counts.get(slot, 0) + count
        self._total += count
        self._sum += value * count

    def add_many(self, values: Sequence[int]) -> None:
        """Record one sample of each of ``values`` — ``add`` in bulk, for
        owners that tally locally and flush once.  All-or-nothing: a
        negative sample raises before anything is recorded."""
        if not values:
            return
        if min(values) < 0:
            raise ValueError("value must be >= 0")
        counts = self._counts
        buckets = self._buckets
        if buckets:  # ``_slot`` spelled out: one bisect per sample, no call
            size, overflow = len(buckets), buckets[-1] + 1
            for value in values:
                index = bisect_left(buckets, value)
                slot = buckets[index] if index < size else overflow
                counts[slot] = counts.get(slot, 0) + 1
        else:
            for slot in values:
                counts[slot] = counts.get(slot, 0) + 1
        self._total += len(values)
        self._sum += sum(values)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._total

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty).

        Exact for exact-mode histograms; for fixed buckets the sum is still
        accumulated from the raw samples, so the mean does not quantize.
        """
        return self._sum / self._total if self._total else 0.0

    @property
    def max(self) -> int:
        """Largest bucket holding samples (0 when empty)."""
        return max(self._counts) if self._counts else 0

    def percentile(self, p: float) -> int:
        """The nearest-rank ``p``-th percentile (0 when empty).

        In fixed-bucket mode the result interpolates linearly *within* the
        bucket holding the rank: the true sample lies somewhere in
        ``(lower_bound, upper_bound]``, and assuming it uniform beats
        always answering the upper bound (which overstates the tail by up
        to a full bucket width on the wide high-end buckets a 1-2-5 grid
        has).  The rank sitting at the bucket's last sample still answers
        the upper bound, so a percentile never exceeds what the old
        conservative rule reported.  Overflow samples (beyond the last
        bound) have no upper edge to interpolate toward and keep the
        sentinel ``last_bound + 1``.
        """
        if not 0 < p <= 100:
            raise ValueError("p must be in (0, 100]")
        if not self._total:
            return 0
        rank = max(1, -(-self._total * p // 100))  # ceil without floats
        seen = 0
        for value in sorted(self._counts):
            in_bucket = self._counts[value]
            seen += in_bucket
            if seen >= rank:
                if self._buckets is None or value > self._buckets[-1]:
                    # Exact mode, or the unbounded overflow bucket.
                    return value
                lower = 0
                for bound in self._buckets:
                    if bound == value:
                        break
                    lower = bound
                position = rank - (seen - in_bucket)  # 1 .. in_bucket
                return lower + int(round(
                    (value - lower) * position / in_bucket
                ))
        return self.max  # pragma: no cover - unreachable

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's buckets into this one."""
        if self._buckets != other._buckets:
            raise ValueError(
                f"cannot merge histograms with different bucket layouts "
                f"({self._buckets} vs {other._buckets})"
            )
        for value, count in other._counts.items():
            self._counts[value] = self._counts.get(value, 0) + count
        self._total += other._total
        self._sum += other._sum

    def buckets(self) -> List[Tuple[int, int]]:
        """Sorted ``(value, count)`` pairs (the raw histogram)."""
        return sorted(self._counts.items())

    def to_dict(self) -> Dict[str, object]:
        """Mean, tail percentiles and max — the summary a dashboard shows.

        Fixed-bucket histograms hold continuous-ish samples (latencies)
        whose tail is the point, so they add a p99.9.
        """
        data: Dict[str, object] = {
            "count": self._total,
            "mean": round(self.mean, 3),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }
        if self._buckets is not None:
            data["p999"] = self.percentile(99.9)
        return data

    def dump(self) -> Dict[str, object]:
        """Full-fidelity form: buckets included, so a reader re-derives any
        percentile exactly (what :meth:`to_dict` cannot offer)."""
        data: Dict[str, object] = {
            "type": "histogram",
            "count": self._total,
            "sum": self._sum,
            "buckets": [list(pair) for pair in self.buckets()],
        }
        if self._buckets is not None:
            data["bounds"] = list(self._buckets)
        return data

    @classmethod
    def from_dump(cls, data: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`dump` output."""
        bounds = data.get("bounds")
        histogram = cls(tuple(bounds) if bounds is not None else None)
        for value, count in data.get("buckets", []):
            histogram._counts[int(value)] = int(count)
        histogram._total = int(data.get("count", 0))
        histogram._sum = int(data.get("sum", 0))
        return histogram


class CounterMap(dict):
    """A counter family: an open set of labelled counts, as a ``dict``.

    Being a ``dict`` subclass keeps every existing read pattern working
    (``stats.hops.get(...)``, ``dict(stats.plan_events)``, direct
    indexing); the methods below replace the hand-rolled merge/diff loops
    that used to live on each owner.
    """

    def bump(self, key, amount: int = 1) -> None:
        """Add ``amount`` to ``key``'s count."""
        self[key] = self.get(key, 0) + amount

    def merge(self, other: Dict) -> None:
        """Fold another counter map in (associative, commutative)."""
        for key, count in other.items():
            self[key] = self.get(key, 0) + count

    def diff(self, earlier: Dict) -> "CounterMap":
        """Non-zero deltas accumulated since ``earlier`` was snapshotted."""
        delta = CounterMap()
        for key, count in self.items():
            if count - earlier.get(key, 0):
                delta[key] = count - earlier.get(key, 0)
        return delta

    def snapshot(self) -> "CounterMap":
        """An independent copy of the current counts."""
        return CounterMap(self)


class MetricsRegistry:
    """A named collection of instruments with an associative ``merge()``.

    Instruments are created on first use (``counter("requests")``) and
    addressed by name thereafter; asking for an existing name with a
    different instrument type is an error, not a silent overwrite.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ValueError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get(name, Gauge, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Tuple[int, ...]] = None
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        return self._get(name, Histogram, lambda: Histogram(buckets))

    def counter_map(self, name: str) -> CounterMap:
        """The counter family called ``name``, created on first use."""
        return self._get(name, CounterMap, CounterMap)

    def timeline(self, name: str, width_us: int) -> Timeline:
        """The virtual-time timeline called ``name``, created on first use."""
        return self._get(name, Timeline, lambda: Timeline(width_us))

    def register(self, name: str, instrument):
        """Adopt an instrument its owner built itself under ``name``.  The
        name must be free."""
        if name in self._instruments:
            raise ValueError(f"metric {name!r} is already registered")
        if not isinstance(
            instrument, (Counter, Gauge, Histogram, CounterMap, Timeline)
        ):
            raise TypeError(f"unknown instrument {type(instrument)}")
        self._instruments[name] = instrument
        return instrument

    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in, instrument by instrument.

        Names present on only one side are adopted as-is (the empty
        instrument is every merge's identity), so shard registries need not
        agree on which metrics they touched.
        """
        for name, instrument in other._instruments.items():
            mine = self._instruments.get(name)
            if mine is None:
                if isinstance(instrument, Counter):
                    mine = self.counter(name)
                elif isinstance(instrument, Gauge):
                    mine = self.gauge(name)
                elif isinstance(instrument, Histogram):
                    mine = self.histogram(name, instrument.bucket_bounds)
                elif isinstance(instrument, CounterMap):
                    mine = self.counter_map(name)
                elif isinstance(instrument, Timeline):
                    mine = self.timeline(name, instrument.width_us)
                else:  # pragma: no cover - registry only creates the above
                    raise TypeError(f"unknown instrument {type(instrument)}")
            elif type(mine) is not type(instrument):
                raise ValueError(
                    f"metric {name!r} has type {type(mine).__name__} here "
                    f"but {type(instrument).__name__} in the other registry"
                )
            mine.merge(instrument)

    def to_dict(self) -> Dict[str, object]:
        """The whole registry as one deterministic, JSON-safe dictionary."""
        out: Dict[str, object] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.dump()
            elif isinstance(instrument, CounterMap):
                out[name] = {
                    "type": "counter_map",
                    "counts": {
                        str(key): instrument[key] for key in sorted(
                            instrument, key=str
                        )
                    },
                }
            else:
                out[name] = instrument.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output.

        Counter-map label keys come back as strings (JSON has no tuple
        keys); that is fine for every exported family, which label by
        category or kind strings anyway.
        """
        registry = cls()
        for name, payload in data.items():
            kind = payload.get("type")
            if kind == "counter":
                registry.counter(name).inc(int(payload["value"]))
            elif kind == "gauge":
                registry.gauge(name).set(float(payload["value"]))
            elif kind == "histogram":
                registry._instruments[name] = Histogram.from_dump(payload)
            elif kind == "counter_map":
                registry.counter_map(name).merge(payload.get("counts", {}))
            elif kind == "timeline":
                registry._instruments[name] = Timeline.from_dump(payload)
            else:
                raise ValueError(f"unknown instrument type {kind!r} for {name!r}")
        return registry


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Fold any number of registries into a fresh one."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged
