"""Span recording, phase profiles, the export layout and its readers.

The tracing layer's contract is determinism: logical-clock timestamps
only, dense ids, strict innermost-first closing, and a JSONL form that
round-trips byte-identically.  The profile layer's contract is the
opposite — wall clock, explicitly nondeterministic — so what these tests
pin there is the accounting (phases accumulate, merge adds) and the
active-instance pattern both layers share: no tracer/profile installed
means every instrumentation point is a no-op.
"""

import io

import pytest

from repro.obs import export
from repro.obs.profile import (
    CELL_RUN,
    PhaseProfile,
    phase,
    profiling,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import (
    Span,
    SpanRecorder,
    active_tracer,
    load_spans,
    tracing,
)
from repro.obs.tools import (
    diff_exports,
    render_diff,
    render_summary,
    summarize_export,
)


class TestSpanRecorder:
    def test_nesting_tracks_the_open_span_stack(self):
        tracer = SpanRecorder()
        outer = tracer.begin("request", client=1)
        inner = tracer.begin("locate")
        tracer.end(inner, hops=4)
        tracer.end(outer, ok=True)
        spans = tracer.spans
        assert [s.span_id for s in spans] == [0, 1]  # dense ids, begin order
        assert spans[0].parent_id is None
        assert spans[1].parent_id == outer
        assert spans[1].attrs == {"hops": 4}
        assert spans[0].attrs == {"client": 1, "ok": True}

    def test_closing_out_of_order_raises(self):
        tracer = SpanRecorder()
        outer = tracer.begin("request")
        tracer.begin("locate")
        with pytest.raises(ValueError):
            tracer.end(outer)

    def test_event_is_a_closed_child_of_the_innermost_span(self):
        tracer = SpanRecorder()
        outer = tracer.begin("shard")
        event_id = tracer.event("cell-run", position=3)
        tracer.end(outer)
        event_span = tracer.spans[event_id]
        assert event_span.parent_id == outer
        assert event_span.attrs == {"position": 3}
        assert len(tracer) == 2

    def test_clock_is_injected_never_sampled(self):
        tracer = SpanRecorder()
        first = tracer.begin("a")
        tracer.end(first)
        tracer.set_clock(2.5)
        second = tracer.begin("b")
        tracer.end(second)
        assert tracer.spans[first].clock == 0.0
        assert tracer.spans[second].clock == 2.5
        assert tracer.clock == 2.5

    def test_jsonl_round_trip_is_byte_identical(self, tmp_path):
        tracer = SpanRecorder()
        tracer.set_clock(1.0)
        sid = tracer.begin("deliver", category="post", hops=3)
        tracer.end(sid, reached=2)
        tracer.event("route", category="reply")
        path = tmp_path / "spans.jsonl"
        tracer.to_path(path)
        loaded = load_spans(path)
        assert [s.to_dict() for s in loaded] == \
            [s.to_dict() for s in tracer.spans]
        # Attrs serialize key-sorted, so re-dumping reproduces the bytes.
        buffer = io.StringIO()
        tracer.dump_jsonl(buffer)
        assert buffer.getvalue() == path.read_text()

    def test_identical_recordings_produce_identical_streams(self):
        def record():
            tracer = SpanRecorder()
            for clock in (0.5, 1.5):
                tracer.set_clock(clock)
                sid = tracer.begin("request", client=0)
                tracer.event("rendezvous-resolve", nodes=4)
                tracer.end(sid, hops=6)
            buffer = io.StringIO()
            tracer.dump_jsonl(buffer)
            return buffer.getvalue()

        assert record() == record()


class TestActiveTracer:
    def test_default_is_none_and_with_none_stays_none(self):
        assert active_tracer() is None
        with tracing(None):
            assert active_tracer() is None

    def test_install_and_restore_including_reentrant(self):
        outer_tracer, inner_tracer = SpanRecorder(), SpanRecorder()
        with tracing(outer_tracer):
            assert active_tracer() is outer_tracer
            with tracing(inner_tracer):
                assert active_tracer() is inner_tracer
            assert active_tracer() is outer_tracer
        assert active_tracer() is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing(SpanRecorder()):
                raise RuntimeError("boom")
        assert active_tracer() is None


class TestPhaseProfile:
    def test_phases_accumulate_seconds_and_counts(self):
        profile = PhaseProfile("worker")
        profile.add(CELL_RUN, 0.5)
        profile.add(CELL_RUN, 0.25, count=2)
        assert profile.seconds(CELL_RUN) == pytest.approx(0.75)
        assert profile.count(CELL_RUN) == 3
        assert bool(profile)
        assert not PhaseProfile("empty")

    def test_phase_context_charges_elapsed_time(self):
        profile = PhaseProfile()
        with profile.phase("work"):
            pass
        assert profile.count("work") == 1
        assert profile.seconds("work") >= 0.0

    def test_merge_adds_and_round_trips(self):
        a = PhaseProfile("a")
        a.add("x", 1.0)
        b = PhaseProfile("b")
        b.add("x", 0.5, count=2)
        b.add("y", 0.25)
        a.merge(b)
        assert a.seconds("x") == pytest.approx(1.5)
        assert a.count("x") == 3
        rebuilt = PhaseProfile.from_dict(a.to_dict())
        assert rebuilt.to_dict() == a.to_dict()
        assert rebuilt.label == "a"

    def test_module_phase_no_ops_without_an_active_profile(self):
        with phase("anything"):
            pass  # must not raise, must not create state

    def test_module_phase_charges_the_active_profile(self):
        profile = PhaseProfile("p")
        with profiling(profile):
            with phase("build"):
                pass
        with phase("build"):  # uninstalled again: charged to nobody
            pass
        assert profile.count("build") == 1


def _registry(requests, hop_samples):
    registry = MetricsRegistry()
    registry.counter("requests").inc(requests)
    for sample in hop_samples:
        registry.histogram("locate_hops").add(sample)
    registry.counter_map("events").bump("crash", 2)
    return registry


def _write_export(directory, cells, shard_spans=True, with_profile=True):
    """A synthetic but layout-faithful export directory."""
    directory = export.export_dir(directory)
    with open(export.metrics_path(directory), "w", encoding="utf-8") as fp:
        for position, hops in cells:
            fp.write(export.dump_metrics_line(
                position,
                {"name": f"cell-{position}", "strategy": "checkerboard"},
                _registry(len(hops), hops),
            ))
    for position, hops in cells:
        tracer = SpanRecorder()
        sid = tracer.begin("request", client=0)
        for hop in hops:
            tracer.event("deliver", category="query", hops=hop)
        tracer.end(sid, hops=sum(hops))
        tracer.to_path(export.cell_span_path(directory, position))
    if shard_spans:
        tracer = SpanRecorder()
        sid = tracer.begin("shard", shard=0, cells=len(cells))
        for position, _ in cells:
            tracer.event("cell-run", position=position)
        tracer.end(sid)
        tracer.to_path(export.shard_span_path(directory, 0))
    if with_profile:
        profile = PhaseProfile("shard-0")
        profile.add(CELL_RUN, 0.125, count=len(cells))
        export.write_profiles(export.profile_path(directory), [profile])
    return directory


class TestExportLayout:
    def test_paths_key_on_position_and_shard_index(self, tmp_path):
        assert export.cell_span_path(tmp_path, 7).name == \
            "spans-cell-0007.jsonl"
        assert export.shard_span_path(tmp_path, 2).name == \
            "spans-shard-002.jsonl"
        assert export.metrics_path(tmp_path).name == "metrics.jsonl"

    def test_metrics_lines_load_sorted_by_position(self, tmp_path):
        directory = _write_export(tmp_path, [(3, [1, 2]), (0, [4])])
        entries = export.load_metrics(export.metrics_path(directory))
        assert [meta["position"] for meta, _ in entries] == [0, 3]
        assert entries[1][0]["name"] == "cell-3"
        assert entries[1][1].counter("requests").value == 2

    def test_merged_metrics_fold_every_cell(self, tmp_path):
        directory = _write_export(tmp_path, [(0, [1, 2, 3]), (1, [5])])
        merged = export.merged_metrics(export.metrics_path(directory))
        assert merged.counter("requests").value == 4
        assert merged.histogram("locate_hops").count == 4
        assert merged.histogram("locate_hops").max == 5
        assert merged.counter_map("events")["crash"] == 4

    def test_profiles_round_trip_and_label_the_dict(self, tmp_path):
        directory = _write_export(tmp_path, [(0, [1])])
        profiles = export.load_profiles(export.profile_path(directory))
        assert [p.label for p in profiles] == ["shard-0"]
        assert export.profiles_dict(profiles)["shard-0"][CELL_RUN]["count"] == 1

    def test_span_breakdown_groups_by_category(self, tmp_path):
        directory = _write_export(tmp_path, [(0, [2, 3]), (1, [4])])
        sets = export.load_all_spans(directory)
        # Cells sort before the shard file; each entry is (file_name, spans).
        assert [name for name, _ in sets] == [
            "spans-cell-0000.jsonl", "spans-cell-0001.jsonl",
            "spans-shard-000.jsonl",
        ]
        table = export.span_breakdown(sets)
        assert table["deliver[query]"] == {"count": 3, "hops": 9}
        assert table["request"]["count"] == 2
        assert table["cell-run"] == {"count": 2, "hops": 0}


class TestSummarizeAndDiff:
    def test_summarize_reports_all_sections(self, tmp_path):
        directory = _write_export(tmp_path, [(0, [1, 2, 2]), (1, [3])])
        summary = summarize_export(directory)
        assert summary["cells"] == 2
        assert summary["metrics"]["requests"] == 4
        assert summary["metrics"]["locate_hops"]["count"] == 4
        assert summary["metrics"]["locate_hops"]["p50"] == 2
        assert summary["metrics"]["events"] == {"total": 4, "keys": 1}
        assert summary["spans"]["deliver[query]"]["hops"] == 8
        assert summary["profile"]["shard-0"][CELL_RUN]["count"] == 2
        text = render_summary(summary)
        assert "cells: 2" in text and "shard-0" in text
        assert "deliver[query]" in text

    def test_summarize_empty_directory_is_an_error(self, tmp_path):
        empty = export.export_dir(tmp_path / "empty")
        with pytest.raises(ValueError):
            summarize_export(empty)

    def test_diff_of_identical_exports_is_empty(self, tmp_path):
        a = _write_export(tmp_path / "a", [(0, [1, 2])])
        b = _write_export(tmp_path / "b", [(0, [1, 2])])
        diff = diff_exports(a, b)
        assert diff["cells"] == {"a": 1, "b": 1}
        assert diff["metrics"] == {}
        assert diff["spans"] == {}
        assert "(no differences)" in render_diff(diff)

    def test_diff_surfaces_numeric_deltas_b_minus_a(self, tmp_path):
        a = _write_export(tmp_path / "a", [(0, [1, 2])])
        b = _write_export(tmp_path / "b", [(0, [1, 2, 6])])
        diff = diff_exports(a, b)
        assert diff["metrics"]["requests"] == 1
        assert diff["metrics"]["locate_hops"]["count"] == 1
        assert diff["spans"]["deliver[query]"] == {"count": 1, "hops": 6}
        assert "requests" in render_diff(diff)

    def test_diff_ignores_profiles_by_design(self, tmp_path):
        # Same data, wildly different wall clock: the diff must be silent.
        a = _write_export(tmp_path / "a", [(0, [1])])
        b = _write_export(tmp_path / "b", [(0, [1])], with_profile=False)
        diff = diff_exports(a, b)
        assert diff["metrics"] == {} and diff["spans"] == {}
        assert "profile" not in diff
