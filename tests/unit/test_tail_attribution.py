"""Unit tests for the tail-latency-attribution layer.

Covers the pieces PR 10 adds below the driver: the ``Timeline``
instrument's windowing and merge algebra, ``SloSpec`` validation and
serialization (including the untimed-digest contract: no ``slo`` key when
unset), the metrics facade's SLO burn accounting, in-bucket percentile
interpolation for fixed histograms (with the exact-mode behavior pinned),
and the attribution ranking/diff arithmetic.
"""

import pytest

from repro.codec import decode, encode
from repro.obs.attr import (
    attribute_export,
    rank_contributors,
    render_attribution,
    render_attribution_diff,
)
from repro.obs.export import write_records
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.timeline import Timeline
from repro.simtime import FifoResource, LinkTiming, TimedOverlay, TimeModelSpec
from repro.workload import ScenarioSpec, SloSpec, build_topology
from repro.workload.metrics import WorkloadMetrics


def timeline_of(width_us, *windows):
    """A timeline holding ``(index, fields)`` windows, built the way the
    timed flush builds one."""
    return Timeline.from_dump({"width_us": width_us, "windows": windows})


class TestTimelineWindowing:
    def test_observations_land_in_their_virtual_window(self):
        # A queue station tallies each visit under its arrival window
        # (arrivals in ns: 0, 999 us and 1 ms).
        station = FifoResource(1, width_us=1000)
        for now in (0, 999_000, 1_000_000):
            station.acquire(now, hold=0)
        assert {index: window[0] for index, window in station.windows.items()} \
            == {0: 2, 1: 1}

    def test_mark_keeps_the_window_maximum(self):
        timeline = Timeline(width_us=100)
        for peak in (3, 7, 5):
            timeline.merge(timeline_of(100, (0, {"depth_peak": peak})))
        assert timeline.windows() == [(0, {"depth_peak": 7})]
        assert timeline.total("depth_peak") == 7

    def test_field_suffix_convention_is_enforced(self):
        # The name alone says how a field merges: levels by max, counts by
        # sum — so a tally must name its peaks ``*_peak``/``*_max``.
        timeline = timeline_of(100, (0, {"served": 2, "latency_us_max": 9}))
        timeline.merge(timeline_of(100, (0, {"served": 3, "latency_us_max": 4})))
        assert timeline.windows() == [(0, {"latency_us_max": 9, "served": 5})]

    def test_width_and_time_validation(self):
        with pytest.raises(ValueError):
            Timeline(width_us=0)
        with pytest.raises(ValueError, match="width"):
            Timeline(width_us=10).merge(timeline_of(20, (0, {"served": 1})))

    def test_total_sums_counts_across_windows(self):
        timeline = timeline_of(10, (0, {"served": 2}), (2, {"served": 3}))
        assert timeline.total("served") == 5
        assert timeline.total("missing") == 0


class TestTimelineMergeAlgebra:
    def _sample(self, offset_us):
        return timeline_of(1000, (offset_us // 1000, {
            "served": 1, "latency_sum_us": 40, "depth_peak": offset_us % 7 + 1,
        }))

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
        a.timeline("timeline", 500).merge(timeline_of(500, (0, {"served": 1})))
        b = MetricsRegistry()
        b.timeline("timeline", 500).merge(timeline_of(
            500, (0, {"served": 2}), (1, {"depth_peak": 4}),
        ))
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
        payload = encode(spec)
        assert "slo" not in payload
        assert decode(ScenarioSpec, payload).slo is None

    def test_spec_with_slo_round_trips(self):
        slo = SloSpec(latency_objective=0.02, window=0.25)
        spec = ScenarioSpec(name="timed", topology="complete:4",
                            strategy="checkerboard", operations=5, slo=slo)
        payload = encode(spec)
        assert payload["slo"]["latency_objective"] == 0.02
        restored = decode(ScenarioSpec, payload)
        assert restored.slo == slo
        assert restored == spec


def observe_requests(metrics, requests):
    """One timed run that priced only ``requests``: completion window ->
    ``[served, failed, latency_sum_us, bad_latency, latency_us_max]``."""
    metrics.observe_timed_run(
        latencies=[], requests=requests, waits=[], wait_us=0, depths=[],
        visits={}, link_busy_us={}, critical_us={}, horizon_us=0,
    )


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
        assert metrics.latency_objective_us == float("inf")
        observe_requests(metrics, {0: [1, 0, 5_000, 0, 5_000]})
        assert metrics.slo_summary() is None
        assert "slo" not in metrics.summary()

    def test_burn_rates_and_first_breach(self):
        # objective 10ms, target p99 -> budget 1% bad; window 0.5s.
        slo = SloSpec(latency_objective=0.01, latency_target=0.99,
                      availability_target=0.999, window=0.5)
        metrics = self._timed_metrics(slo)
        assert metrics.latency_objective_us == 10_000
        observe_requests(metrics, {
            # Window 0: 10 good requests.
            0: [10, 0, 10 * 1_000, 0, 1_000],
            # Window 2: 5 good, 5 over-objective -> 50% bad, burn 50.
            2: [10, 0, 5 * 1_000 + 5 * 50_000, 5, 50_000],
        })
        summary = metrics.slo_summary()
        assert summary["served"] == 20
        assert summary["bad_latency"] == 5
        assert summary["latency_burn_rate"] == pytest.approx(25.0)
        assert summary["availability_burn_rate"] == 0.0
        assert summary["windows"] == 2
        assert summary["breached_windows"] == 1
        assert summary["first_breach_us"] == 1_000_000
        assert metrics.summary()["slo"] == summary

    def _one_hop_request(self, metrics, link_latency):
        """Price one request of a single one-hop payload over a link of
        ``link_latency`` seconds; return its latency in microseconds."""
        network = build_topology("ring:4").build_network(delivery_mode="unicast")
        model = TimeModelSpec(
            default_link=LinkTiming(latency=link_latency), node_service=0.0
        )
        overlay = TimedOverlay(network, model, seed=1, metrics=metrics)
        overlay.begin_request(0.0)
        overlay.on_payload(0, 1)
        latency_us = overlay.finish_request()[0]
        overlay.finalize()
        return latency_us

    def test_a_request_at_the_objective_meets_it(self):
        # 0.000249 s * 1e6 is 248.99999999999997 in floating point: the
        # objective is the whole-us figure the summary reports, and a
        # request that takes exactly that long is not bad.
        metrics = self._timed_metrics(SloSpec(latency_objective=0.000249))
        assert self._one_hop_request(metrics, 0.000249) == 249
        summary = metrics.slo_summary()
        assert (summary["served"], summary["bad_latency"]) == (1, 0)
        assert summary["objective_us"] == metrics.latency_objective_us == 249

    def test_a_request_one_us_over_the_objective_is_bad(self):
        metrics = self._timed_metrics(SloSpec(latency_objective=0.000249))
        assert self._one_hop_request(metrics, 0.000250) == 250
        summary = metrics.slo_summary()
        assert (summary["served"], summary["bad_latency"]) == (1, 1)

    def test_availability_breach_sets_first_breach(self):
        slo = SloSpec(availability_target=0.9)
        metrics = self._timed_metrics(slo)
        observe_requests(metrics, {0: [5, 1, 500, 0, 100]})
        summary = metrics.slo_summary()
        assert summary["failed"] == 1
        assert summary["availability_burn_rate"] == pytest.approx(2.0)
        assert summary["first_breach_us"] == 0

    def test_no_breach_reports_none(self):
        metrics = self._timed_metrics(SloSpec())
        observe_requests(metrics, {0: [10, 0, 1_000, 0, 100]})
        summary = metrics.slo_summary()
        assert summary["breached_windows"] == 0
        assert summary["first_breach_us"] is None


class TestLinkUtilization:
    def test_the_five_busiest_links_are_ranked(self):
        metrics = WorkloadMetrics()
        metrics.enable_timing()
        busy = {f"link-{index}": 100 * index for index in range(1, 8)}
        busy["link-tie"] = 500  # ties break by link key
        metrics.observe_timed_run(
            latencies=[], requests={}, waits=[], wait_us=0, depths=[],
            visits={}, link_busy_us=busy, critical_us={}, horizon_us=1_000,
        )
        assert list(metrics.link_utilization().items()) == [
            ("link-7", 0.7), ("link-6", 0.6), ("link-5", 0.5),
            ("link-tie", 0.5), ("link-4", 0.4),
        ]

    def test_no_horizon_reports_no_links(self):
        metrics = WorkloadMetrics()
        metrics.enable_timing()
        assert metrics.link_utilization() == {}


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
        untimed = {"kind": "metrics", "position": 0, "registry": {}}
        write_records(tmp_path, [untimed], cell=0)
        with pytest.raises(ValueError, match="untimed runs"):
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
