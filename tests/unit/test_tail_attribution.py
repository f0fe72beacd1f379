"""Unit tests for the tail-latency-attribution layer.

Covers the pieces PR 10 adds below the driver: the ``Timeline``
instrument's windowing and merge algebra, ``SloSpec`` validation and
serialization (including the untimed-digest contract: no ``slo`` key when
unset), the metrics facade's SLO burn accounting, in-bucket percentile
interpolation for fixed histograms (with the exact-mode behavior pinned),
and the attribution ranking/diff arithmetic.
"""

import pytest

from repro.obs.attr import (
    attribute_export,
    rank_contributors,
    render_attribution,
    render_attribution_diff,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.timeline import Timeline
from repro.workload import ScenarioSpec, SloSpec
from repro.workload.metrics import WorkloadMetrics


class TestTimelineWindowing:
    def test_observations_land_in_their_virtual_window(self):
        timeline = Timeline(width_us=1000)
        timeline.bump(0, served=1)
        timeline.bump(999, served=2)
        timeline.bump(1000, served=5)
        assert timeline.windows() == [(0, {"served": 3}), (1, {"served": 5})]

    def test_mark_keeps_the_window_maximum(self):
        timeline = Timeline(width_us=100)
        timeline.mark(10, depth_peak=3)
        timeline.mark(20, depth_peak=7)
        timeline.mark(30, depth_peak=5)
        assert timeline.windows() == [(0, {"depth_peak": 7})]
        assert timeline.total("depth_peak") == 7

    def test_field_suffix_convention_is_enforced(self):
        timeline = Timeline(width_us=100)
        with pytest.raises(ValueError, match="level"):
            timeline.bump(0, depth_peak=1)
        with pytest.raises(ValueError, match="count"):
            timeline.mark(0, served=1)

    def test_width_and_time_validation(self):
        with pytest.raises(ValueError):
            Timeline(width_us=0)
        with pytest.raises(ValueError):
            Timeline(width_us=10).bump(-1, served=1)

    def test_total_sums_counts_across_windows(self):
        timeline = Timeline(width_us=10)
        timeline.bump(5, served=2)
        timeline.bump(25, served=3)
        assert timeline.total("served") == 5
        assert timeline.total("missing") == 0


class TestTimelineMergeAlgebra:
    def _sample(self, offset_us):
        timeline = Timeline(width_us=1000)
        timeline.bump(offset_us, served=1, latency_sum_us=40)
        timeline.mark(offset_us, depth_peak=offset_us % 7 + 1)
        return timeline

    def test_merge_is_associative_and_commutative(self):
        parts = [self._sample(offset) for offset in (0, 800, 1500, 3200)]

        def fold(order):
            acc = Timeline(width_us=1000)
            for index in order:
                acc.merge(parts[index])
            return acc.to_dict()

        left = fold([0, 1, 2, 3])
        assert fold([3, 2, 1, 0]) == left
        # A different grouping: (0+1) merged into (2+3).
        a = Timeline(width_us=1000)
        a.merge(parts[0]); a.merge(parts[1])
        b = Timeline(width_us=1000)
        b.merge(parts[2]); b.merge(parts[3])
        b.merge(a)
        assert b.to_dict() == left

    def test_empty_timeline_is_the_identity(self):
        timeline = self._sample(123)
        before = timeline.to_dict()
        timeline.merge(Timeline(width_us=1000))
        assert timeline.to_dict() == before

    def test_width_mismatch_refuses_to_merge(self):
        with pytest.raises(ValueError, match="width"):
            Timeline(width_us=10).merge(Timeline(width_us=20))

    def test_roundtrip_through_dump(self):
        timeline = self._sample(42)
        clone = Timeline.from_dump(timeline.to_dict())
        assert clone.to_dict() == timeline.to_dict()
        assert clone.width_us == timeline.width_us

    def test_registry_merges_and_serializes_timelines(self):
        a = MetricsRegistry()
        a.timeline("timeline", 500).bump(0, served=1)
        b = MetricsRegistry()
        b.timeline("timeline", 500).bump(100, served=2)
        b.timeline("timeline", 500).mark(600, depth_peak=4)
        a.merge(b)
        merged = a.timeline("timeline", 500)
        assert merged.windows() == [
            (0, {"served": 3}), (1, {"depth_peak": 4}),
        ]
        restored = MetricsRegistry.from_dict(a.to_dict())
        assert restored.to_dict() == a.to_dict()


class TestSloSpec:
    def test_defaults_and_label(self):
        slo = SloSpec()
        assert slo.latency_objective == 0.01
        assert slo.latency_target == 0.99
        assert "p0.99<0.01s@0.5s" == slo.label

    def test_validation(self):
        with pytest.raises(ValueError):
            SloSpec(latency_objective=0.0)
        with pytest.raises(ValueError):
            SloSpec(latency_target=1.0)
        with pytest.raises(ValueError):
            SloSpec(availability_target=0.0)
        with pytest.raises(ValueError):
            SloSpec(window=0.0)

    def test_spec_without_slo_serializes_without_the_key(self):
        spec = ScenarioSpec(name="plain", topology="complete:4",
                            strategy="checkerboard", operations=5)
        payload = spec.to_dict()
        assert "slo" not in payload
        assert ScenarioSpec.from_dict(payload).slo is None

    def test_spec_with_slo_round_trips(self):
        slo = SloSpec(latency_objective=0.02, window=0.25)
        spec = ScenarioSpec(name="timed", topology="complete:4",
                            strategy="checkerboard", operations=5, slo=slo)
        payload = spec.to_dict()
        assert payload["slo"]["latency_objective"] == 0.02
        restored = ScenarioSpec.from_dict(payload)
        assert restored.slo == slo
        assert restored == spec


class TestSloBurnAccounting:
    def _timed_metrics(self, slo):
        metrics = WorkloadMetrics()
        metrics.enable_timing(slo=slo)
        return metrics

    def test_untimed_metrics_report_no_slo_section(self):
        metrics = WorkloadMetrics()
        assert metrics.slo_summary() is None
        assert "slo" not in metrics.summary()

    def test_timed_metrics_without_slo_report_no_slo_section(self):
        metrics = self._timed_metrics(None)
        metrics.observe_latency(5_000, at_us=0)
        assert metrics.slo_summary() is None
        assert "slo" not in metrics.summary()

    def test_burn_rates_and_first_breach(self):
        # objective 10ms, target p99 -> budget 1% bad; window 0.5s.
        slo = SloSpec(latency_objective=0.01, latency_target=0.99,
                      availability_target=0.999, window=0.5)
        metrics = self._timed_metrics(slo)
        # Window 0: 10 good requests.
        for index in range(10):
            metrics.observe_latency(1_000, at_us=index)
        # Window 2: 5 good, 5 over-objective -> 50% bad, burn 50.
        for index in range(5):
            metrics.observe_latency(1_000, at_us=1_000_000 + index)
            metrics.observe_latency(50_000, at_us=1_000_000 + 5 + index)
        summary = metrics.slo_summary()
        assert summary["served"] == 20
        assert summary["bad_latency"] == 5
        assert summary["latency_burn_rate"] == pytest.approx(25.0)
        assert summary["availability_burn_rate"] == 0.0
        assert summary["windows"] == 2
        assert summary["breached_windows"] == 1
        assert summary["first_breach_us"] == 1_000_000
        assert metrics.summary()["slo"] == summary

    def test_availability_breach_sets_first_breach(self):
        slo = SloSpec(availability_target=0.9)
        metrics = self._timed_metrics(slo)
        for index in range(4):
            metrics.observe_latency(100, at_us=index)
        metrics.observe_latency(100, at_us=4, ok=False)
        summary = metrics.slo_summary()
        assert summary["failed"] == 1
        assert summary["availability_burn_rate"] == pytest.approx(2.0)
        assert summary["first_breach_us"] == 0

    def test_no_breach_reports_none(self):
        metrics = self._timed_metrics(SloSpec())
        for index in range(10):
            metrics.observe_latency(100, at_us=index)
        summary = metrics.slo_summary()
        assert summary["breached_windows"] == 0
        assert summary["first_breach_us"] is None


class TestHistogramInterpolation:
    def test_exact_mode_is_pinned_unchanged(self):
        histogram = Histogram()
        for value in (1, 2, 3, 10):
            histogram.add(value)
        assert histogram.percentile(50) == 2
        assert histogram.percentile(100) == 10

    def test_fixed_buckets_interpolate_within_the_bucket(self):
        histogram = Histogram(buckets=(10, 100))
        # Ten values in the (10, 100] bucket: rank r maps to
        # 10 + 90 * r / 10, not a flat 100 for every percentile.
        for _ in range(10):
            histogram.add(50)
        assert histogram.percentile(10) == 19
        assert histogram.percentile(50) == 55
        assert histogram.percentile(100) == 100

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram(buckets=(100,))
        histogram.add(30)
        histogram.add(40)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(100) == 100

    def test_overflow_bucket_stays_exact(self):
        histogram = Histogram(buckets=(2, 4))
        histogram.add(100)
        # Beyond the last bound there is no upper edge to interpolate
        # toward; the recorded (clamped) value returns unchanged.
        assert histogram.percentile(50) == histogram.percentile(99)

    def test_merge_preserves_interpolated_percentiles(self):
        a = Histogram(buckets=(10, 100))
        b = Histogram(buckets=(10, 100))
        for _ in range(5):
            a.add(50)
            b.add(50)
        whole = Histogram(buckets=(10, 100))
        for _ in range(10):
            whole.add(50)
        a.merge(b)
        assert a.percentile(50) == whole.percentile(50)
        assert a.percentile(99) == whole.percentile(99)


class TestAttributionArithmetic:
    COUNTS = {"query:node_wait:0": 700, "query:link_xfer:0<->1": 200,
              "reply:node_service:1": 100}

    def test_rank_orders_by_blame_and_carries_shares(self):
        ranked = rank_contributors(self.COUNTS)
        assert [row["key"] for row in ranked] == [
            "query:node_wait:0", "query:link_xfer:0<->1",
            "reply:node_service:1",
        ]
        assert ranked[0]["share"] == 0.7
        assert sum(row["share"] for row in ranked) == pytest.approx(1.0)

    def test_top_truncates_and_ties_break_by_key(self):
        ranked = rank_contributors({"b": 5, "a": 5, "c": 1}, top=2)
        assert [row["key"] for row in ranked] == ["a", "b"]

    def test_empty_counts_rank_empty(self):
        assert rank_contributors({}) == []

    def test_attribute_refuses_untimed_exports(self, tmp_path):
        with pytest.raises(ValueError, match="no metrics"):
            attribute_export(tmp_path)

    def test_render_helpers_cover_empty_sections(self):
        attribution = {
            "overall": {"total_us": 0, "contributors": []},
            "tail": {"exemplars": 0, "total_us": 0, "contributors": []},
        }
        text = render_attribution(attribution)
        assert "(no contributors)" in text
        diff = {
            "overall": {"a_total_us": 0, "b_total_us": 0, "contributors": []},
            "tail": {"a_total_us": 0, "b_total_us": 0, "contributors": []},
        }
        assert "(no differences)" in render_attribution_diff(diff)
