"""The metrics registry: instrument semantics and the merge algebra.

The parallel engine's byte-identical merge rests on every instrument's
``merge()`` being associative and commutative with the empty instrument as
identity — shard in any grouping, fold in any order, and the totals and
every percentile come out the same.  These tests pin that algebra on
randomized sample sets, pin nearest-rank percentiles against an
independent raw-list implementation, and check the same agreement on a
real seed workload (raw samples recovered from the span trace).
"""

import math
import random

import pytest

from repro.obs.registry import (
    Counter,
    CounterMap,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.obs.spans import SpanRecorder
from repro.workload import ArrivalSpec, ScenarioSpec
from repro.workload.driver import WorkloadDriver


def raw_percentile(samples, p):
    """Nearest-rank percentile computed the textbook way, from a raw list."""
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * p / 100)
    return ordered[max(rank, 1) - 1]


def histogram_of(samples, buckets=None):
    histogram = Histogram(buckets)
    for sample in samples:
        histogram.add(sample)
    return histogram


def sample_sets(seed, sets=3, size=200, span=40):
    rng = random.Random(seed)
    return [
        [rng.randrange(span) for _ in range(rng.randrange(1, size))]
        for _ in range(sets)
    ]


class TestHistogramAlgebra:
    @pytest.mark.parametrize("buckets", [None, (1, 2, 4, 8, 16, 32)])
    def test_merge_is_commutative(self, buckets):
        for a, b, _ in [sample_sets(seed) for seed in range(5)]:
            ab = histogram_of(a, buckets)
            ab.merge(histogram_of(b, buckets))
            ba = histogram_of(b, buckets)
            ba.merge(histogram_of(a, buckets))
            assert ab.dump() == ba.dump()

    @pytest.mark.parametrize("buckets", [None, (1, 2, 4, 8, 16, 32)])
    def test_merge_is_associative(self, buckets):
        for a, b, c in [sample_sets(seed) for seed in range(5)]:
            left = histogram_of(a, buckets)   # (a + b) + c
            left.merge(histogram_of(b, buckets))
            left.merge(histogram_of(c, buckets))
            bc = histogram_of(b, buckets)     # a + (b + c)
            bc.merge(histogram_of(c, buckets))
            right = histogram_of(a, buckets)
            right.merge(bc)
            assert left.dump() == right.dump()
            assert left.to_dict() == histogram_of(a + b + c, buckets).to_dict()

    def test_empty_histogram_is_the_merge_identity(self):
        samples = sample_sets(7)[0]
        left = histogram_of(samples)
        left.merge(Histogram())
        right = Histogram()
        right.merge(histogram_of(samples))
        assert left.dump() == right.dump() == histogram_of(samples).dump()
        both_empty = Histogram()
        both_empty.merge(Histogram())
        assert both_empty.count == 0 and both_empty.percentile(99) == 0

    def test_mismatched_bucket_layouts_refuse_to_merge(self):
        with pytest.raises(ValueError):
            Histogram((1, 2)).merge(Histogram((1, 2, 4)))
        with pytest.raises(ValueError):
            Histogram().merge(Histogram((1, 2)))

    def test_merged_percentiles_equal_a_single_combined_run(self):
        # The property the matrix merge relies on: percentiles of the merge
        # == percentiles of one histogram fed everything.
        a, b, c = sample_sets(23)
        merged = histogram_of(a)
        merged.merge(histogram_of(b))
        merged.merge(histogram_of(c))
        combined = a + b + c
        for p in (50, 90, 95, 99, 100):
            assert merged.percentile(p) == raw_percentile(combined, p)


class TestHistogramPercentiles:
    def test_exact_mode_matches_raw_list_nearest_rank(self):
        for samples in [s for triple in
                        (sample_sets(seed) for seed in range(10))
                        for s in triple]:
            histogram = histogram_of(samples)
            for p in (1, 25, 50, 75, 90, 95, 99, 100):
                assert histogram.percentile(p) == raw_percentile(samples, p), (
                    f"p{p} drifted on {len(samples)} samples"
                )
            assert histogram.mean == pytest.approx(
                sum(samples) / len(samples)
            )
            assert histogram.max == max(samples)

    def test_fixed_buckets_round_up_to_the_bucket_bound(self):
        histogram = Histogram((2, 4, 8))
        for value in (0, 1, 2, 3, 5):
            histogram.add(value)
        # Samples land in {2: 3, 4: 1, 8: 1}; the percentile is the bound.
        assert histogram.percentile(50) == 2
        assert histogram.percentile(99) == 8
        # Mean stays exact: the raw sum is accumulated before bucketing.
        assert histogram.mean == pytest.approx((0 + 1 + 2 + 3 + 5) / 5)

    def test_fixed_bucket_summaries_carry_p999_through_a_dump(self):
        exact, bucketed = Histogram(), Histogram((10, 100, 1000))
        for value in range(1, 2001):
            exact.add(value % 7)
            bucketed.add(value % 900)
        assert "p999" not in exact.to_dict()
        summary = bucketed.to_dict()
        assert summary["p999"] == bucketed.percentile(99.9)
        assert list(summary)[-1] == "p999"  # appended after the shared keys
        # ``obs summarize`` re-derives summaries from dumps: same dict, so
        # no reader has to patch the tail back in.
        assert Histogram.from_dump(bucketed.dump()).to_dict() == summary
        assert Histogram.from_dump(exact.dump()).to_dict() == exact.to_dict()

    def test_overflow_bucket_catches_samples_beyond_the_last_bound(self):
        histogram = Histogram((2, 4))
        histogram.add(100)
        assert histogram.percentile(50) == 5  # one past the last bound
        assert histogram.count == 1

    def test_dump_round_trip_preserves_every_percentile(self):
        samples = sample_sets(99)[0]
        for original in (histogram_of(samples),
                         histogram_of(samples, (1, 4, 16))):
            rebuilt = Histogram.from_dump(original.dump())
            assert rebuilt.dump() == original.dump()
            assert rebuilt.to_dict() == original.to_dict()
            assert rebuilt.bucket_bounds == original.bucket_bounds

    def test_rejects_bad_input(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.add(-1)
        with pytest.raises(ValueError):
            histogram.add(1, count=0)
        with pytest.raises(ValueError):
            histogram.percentile(0)
        with pytest.raises(ValueError):
            Histogram((3, 1, 2))


class TestHistogramFromCounts:
    """A run's per-slot counts, rebuilt by ``from_dump`` and merged in, are
    its samples added one at a time — how the timed flush writes its
    histograms, once per run."""

    @staticmethod
    def folded(samples, buckets):
        counts = {}
        for sample in samples:
            (slot, _), = histogram_of([sample], buckets).buckets()
            counts[slot] = counts.get(slot, 0) + 1
        histogram = Histogram(buckets)
        histogram.merge(Histogram.from_dump({
            "bounds": buckets, "buckets": counts.items(),
            "count": len(samples), "sum": sum(samples),
        }))
        return histogram

    @pytest.mark.parametrize("buckets", [None, (1, 2, 4, 8, 16, 32)])
    def test_equals_repeated_add(self, buckets):
        for samples in (s for seed in range(5) for s in sample_sets(seed)):
            folded = self.folded(samples, buckets)
            assert folded.dump() == histogram_of(samples, buckets).dump()
            assert folded.to_dict() == histogram_of(samples, buckets).to_dict()

    def test_overflow_and_boundary_samples_land_like_add(self):
        samples = [0, 1, 2, 3, 8, 9, 500, 500]
        folded = self.folded(samples, (1, 2, 8))
        assert folded.dump() == histogram_of(samples, (1, 2, 8)).dump()
        assert dict(folded.buckets())[9] == 3  # the overflow bucket
        assert folded.mean == pytest.approx(sum(samples) / len(samples))

    def test_an_empty_run_folds_to_nothing(self):
        assert self.folded([], None).dump() == Histogram().dump()
        assert self.folded([], (1, 2)).to_dict() == Histogram((1, 2)).to_dict()

    @pytest.mark.parametrize("buckets", [None, (1, 2, 4, 8, 16, 32)])
    def test_composes_with_merge(self, buckets):
        a, b, c = sample_sets(11)
        left = self.folded(a, buckets)
        right = self.folded(b, buckets)
        right.merge(self.folded(c, buckets))
        left.merge(right)
        assert left.dump() == histogram_of(a + b + c, buckets).dump()


class TestScalarInstruments:
    def test_counter_only_increases_and_merges_by_addition(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        with pytest.raises(ValueError):
            counter.inc(-1)
        other = Counter(3)
        counter.merge(other)
        assert counter.value == 8
        assert counter.to_dict() == {"type": "counter", "value": 8}

    def test_gauge_merges_by_max(self):
        gauge = Gauge()
        gauge.set(7.0)
        shard = Gauge()
        shard.set(3.0)
        gauge.merge(shard)
        assert gauge.value == 7.0
        shard.merge(gauge)
        assert shard.value == 7.0  # commutative: both sides agree

    def test_counter_map_merge_snapshot(self):
        counts = CounterMap()
        counts.bump("post")
        counts.bump("post", 2)
        counts.bump("query")
        before = counts.snapshot()
        counts.merge({"query": 5, "reply": 1})
        assert counts == {"post": 3, "query": 6, "reply": 1}
        before.bump("post")
        assert counts["post"] == 3  # snapshot is independent


class TestRegistry:
    def _populated(self, samples):
        registry = MetricsRegistry()
        registry.counter("requests").inc(len(samples))
        registry.gauge("universe").set(64.0)
        for sample in samples:
            registry.histogram("hops").add(sample)
        registry.counter_map("events").bump("crash", len(samples))
        return registry

    def test_instruments_create_on_first_use_and_keep_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert "a" in registry and registry.names() == ["a"]
        with pytest.raises(ValueError):
            registry.gauge("a")  # name taken by a different type

    def test_merge_adopts_names_the_target_never_touched(self):
        left = MetricsRegistry()
        left.counter("only-left").inc(2)
        right = MetricsRegistry()
        right.counter("only-right").inc(3)
        right.histogram("hops", (1, 2)).add(1)
        left.merge(right)
        assert left.counter("only-left").value == 2
        assert left.counter("only-right").value == 3
        assert left.histogram("hops").bucket_bounds == (1, 2)

    def test_merge_refuses_type_conflicts(self):
        left = MetricsRegistry()
        left.counter("x").inc()
        right = MetricsRegistry()
        right.gauge("x").set(1.0)
        with pytest.raises(ValueError):
            left.merge(right)

    def test_sharded_merge_equals_sequential_in_any_grouping(self):
        a, b, c = sample_sets(41)
        sequential = self._populated(a + b + c)
        shards = [self._populated(s) for s in (a, b, c)]
        folded = merge_registries(shards)
        regrouped = merge_registries([shards[2], shards[0]])
        regrouped.merge(shards[1])
        assert folded.to_dict() == sequential.to_dict()
        assert regrouped.to_dict() == sequential.to_dict()

    def test_to_dict_from_dict_round_trip(self):
        registry = self._populated(sample_sets(5)[0])
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_dict() == registry.to_dict()
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"x": {"type": "mystery"}})


class TestSeedWorkloadPercentiles:
    """Registry percentiles == raw-list percentiles on a real workload.

    The span trace records every request's hop attributes raw; the metrics
    registry histograms the same values.  The two must agree sample for
    sample — this is the cross-check that the instrumentation and the
    histogram math measure the same run.
    """

    def _run(self):
        spec = ScenarioSpec(
            name="obs-percentiles", topology="manhattan:4",
            strategy="manhattan", operations=160, clients=4, servers=4,
            ports=2, delivery_mode="unicast", seed=47,
            arrival=ArrivalSpec(kind="poisson", rate=500.0),
        )
        tracer = SpanRecorder()
        result = WorkloadDriver(spec).run(tracer=tracer)
        requests = [s for s in tracer.spans if s.name == "request"]
        return result.metrics, requests

    def test_span_samples_match_histogram_buckets_exactly(self):
        metrics, requests = self._run()
        assert len(requests) == metrics.requests == 160
        raw_locate = sorted(s.attrs["locate_hops"] for s in requests)
        raw_total = sorted(s.attrs["hops"] for s in requests)
        expand = lambda h: sorted(
            v for v, n in h.buckets() for _ in range(n)
        )
        assert expand(metrics.locate_hops) == raw_locate
        assert expand(metrics.request_hops) == raw_total

    def test_registry_percentiles_equal_raw_list_percentiles(self):
        metrics, requests = self._run()
        raw_locate = [s.attrs["locate_hops"] for s in requests]
        raw_total = [s.attrs["hops"] for s in requests]
        for p in (50, 95, 99):
            assert metrics.locate_hops.percentile(p) == \
                raw_percentile(raw_locate, p)
            assert metrics.request_hops.percentile(p) == \
                raw_percentile(raw_total, p)
