"""Span recording, phase profiles, the export layout and its readers.

The tracing layer's contract is determinism: logical-clock timestamps
only, dense ids, strict innermost-first closing, and a JSONL form that
round-trips byte-identically.  The profile layer's contract is the
opposite — wall clock, explicitly nondeterministic — so what these tests
pin there is the accounting (phases accumulate, merge adds).  Neither is
looked up: a tracer is bound to one network for one run and a profile is
passed to what it times, so nothing bound or passed means every
instrumentation point is a no-op.
"""

import pickle
import re

import pytest

from repro import CheckerboardStrategy, CompleteTopology, MatchMaker, Port
from repro.obs import export
from repro.obs.profile import CELL_RUN, PhaseProfile, timed
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.tools import (
    diff_exports,
    merged_registry,
    render_diff,
    render_summary,
    summarize_export,
)
from repro.workload import MatrixSpec, ScenarioSpec, build_topology, run_cell


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

    def test_jsonl_round_trip_is_byte_identical(self, tmp_path):
        tracer = SpanRecorder()
        tracer.set_clock(1.0)
        sid = tracer.begin("deliver", category="post", hops=3)
        tracer.end(sid, reached=2)
        tracer.event("route", category="reply")
        path = export.write_records(tmp_path, export.span_records(tracer))
        loaded = export.load_export(tmp_path)["span"]
        assert loaded == export.span_records(tracer)
        # Attrs serialize key-sorted, so re-writing reproduces the bytes.
        written = path.read_bytes()
        export.write_records(tmp_path, loaded)
        assert path.read_bytes() == written

    def test_identical_recordings_produce_identical_streams(self):
        def record():
            tracer = SpanRecorder()
            for clock in (0.5, 1.5):
                tracer.set_clock(clock)
                sid = tracer.begin("request", client=0)
                tracer.event("rendezvous-resolve", nodes=4)
                tracer.end(sid, hops=6)
            return export.span_records(tracer)

        assert record() == record()


class TestBoundTracer:
    """The driver binds its tracer to the network for exactly one run."""

    @staticmethod
    def two_cells():
        matrix = MatrixSpec(
            name="bound", topologies=("complete:9",),
            strategies=("checkerboard", "centralized"),
            base=ScenarioSpec(operations=30, clients=3, servers=2, ports=2),
        )
        cells, _ = matrix.expand()
        network = build_topology(cells[0].spec.topology).build_network(
            delivery_mode=cells[0].spec.delivery_mode
        )
        return cells, network

    def test_an_untraced_cell_adds_nothing_to_the_tracer_before_it(self):
        (traced, untraced), network = self.two_cells()
        tracer = SpanRecorder()
        run_cell(traced, network=network, tracer=tracer)
        recorded = [span.to_dict() for span in tracer.spans]
        assert recorded and network.tracer is None
        run_cell(untraced, network=network)
        assert [span.to_dict() for span in tracer.spans] == recorded

    def test_a_run_that_raises_still_unbinds_its_tracer(self):
        class Exploding(SpanRecorder):
            def event(self, name, **attrs):
                raise RuntimeError(f"{name} exploded")

        (cell, _), network = self.two_cells()
        with pytest.raises(RuntimeError, match="exploded"):
            run_cell(cell, network=network, tracer=Exploding())
        assert network.tracer is None

    def test_a_shared_network_traces_like_a_fresh_one(self):
        (first, second), network = self.two_cells()
        run_cell(first, network=network)
        shared, fresh = SpanRecorder(), SpanRecorder()
        run_cell(second, network=network, tracer=shared)
        run_cell(second, tracer=fresh)
        assert [span.to_dict() for span in shared.spans] == \
            [span.to_dict() for span in fresh.spans]

    def test_locate_reads_the_tracer_bound_to_its_network(self):
        topology = CompleteTopology(9)
        network = topology.build_network(delivery_mode="ideal")
        matchmaker = MatchMaker(network, CheckerboardStrategy(topology.nodes()))
        matchmaker.register_server(5, Port("printer"))
        tracer = SpanRecorder()
        network.tracer = tracer
        matchmaker.locate(1, Port("printer"))
        names = [span.name for span in tracer.spans]
        assert "locate" in names and "rendezvous-resolve" in names
        network.tracer = None
        matchmaker.locate(1, Port("printer"))
        assert [span.name for span in tracer.spans] == names

    def test_reset_for_reuse_leaves_no_tracer_bound(self):
        _, network = self.two_cells()
        network.tracer = SpanRecorder()
        network.reset_for_reuse()
        assert network.tracer is None


class TestPhaseProfile:
    def test_phases_accumulate_seconds_and_counts(self):
        profile = PhaseProfile("worker")
        profile.add(CELL_RUN, 0.5)
        profile.add(CELL_RUN, 0.25, count=2)
        assert profile.to_dict()["phases"] == {
            CELL_RUN: {"seconds": 0.75, "count": 3}
        }
        assert PhaseProfile("empty").to_dict()["phases"] == {}

    def test_phase_context_charges_elapsed_time(self):
        profile = PhaseProfile()
        with profile.phase("work"):
            pass
        charged = profile.to_dict()["phases"]["work"]
        assert charged["count"] == 1 and charged["seconds"] >= 0.0

    def test_pickles(self):
        a = PhaseProfile("a")
        a.add("x", 1.0)
        a.add("y", 0.25, count=2)
        # A worker hands its profile back to the parent by pickling it.
        rebuilt = pickle.loads(pickle.dumps(a))
        assert rebuilt.to_dict() == a.to_dict()
        assert rebuilt.label == "a"

    def test_timed_charges_the_profile_it_is_given_and_no_other(self):
        profile = PhaseProfile("p")
        with timed(profile, "build"):
            pass
        with timed(None, "build"):  # profiling off: charged to nobody
            pass
        assert profile.to_dict()["phases"]["build"]["count"] == 1


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
    for position, hops in cells:
        tracer = SpanRecorder()
        sid = tracer.begin("request", client=0)
        for hop in hops:
            tracer.event("deliver", category="query", hops=hop)
        tracer.end(sid, hops=sum(hops))
        metrics = {
            "kind": "metrics", "position": position,
            "name": f"cell-{position}", "strategy": "checkerboard",
            "registry": _registry(len(hops), hops).to_dict(),
        }
        export.write_records(
            directory, [*export.span_records(tracer), metrics], cell=position
        )
    if shard_spans:
        tracer = SpanRecorder()
        sid = tracer.begin("shard", shard=0, cells=len(cells))
        for position, _ in cells:
            tracer.event("cell-run", position=position)
        tracer.end(sid)
        export.write_records(directory, export.span_records(tracer), shard=0)
    if with_profile:
        profile = PhaseProfile("shard-0")
        profile.add(CELL_RUN, 0.125, count=len(cells))
        export.write_records(directory, [{"kind": "profile", **profile.to_dict()}])
    return directory


#: One record of every kind, as the writers build them.
SAMPLES = {
    "span": {"kind": "span", "span": 0, "parent": None, "name": "locate",
             "clock": 1.5, "attrs": {"hops": 4}},
    "metrics": {"kind": "metrics", "position": 2, "name": "cell-2",
                "registry": _registry(2, [1, 3]).to_dict()},
    "timeline": {"kind": "timeline", "request": 7, "latency_us": 40,
                 "critical_path": [["query", "node_wait", "0", 40]]},
    "profile": {"kind": "profile", "label": "shard-0",
                "phases": {CELL_RUN: {"count": 2, "seconds": 0.25}}},
    "cache": {"kind": "cache", "counters": {"hits": 0, "stored": 3}},
}


class TestExportLayout:
    def test_files_key_on_position_and_shard_index(self, tmp_path):
        names = [
            export.write_records(tmp_path, [], **scope).name
            for scope in ({"cell": 7}, {"shard": 2}, {})
        ]
        assert names == [
            "obs-cell-0007.jsonl", "obs-shard-002.jsonl", "obs-run.jsonl",
        ]

    @pytest.mark.parametrize("kind", export.KINDS)
    def test_every_kind_round_trips(self, tmp_path, kind):
        export.write_records(tmp_path, [SAMPLES[kind]], cell=0)
        records = export.load_export(tmp_path)
        assert records[kind] == [SAMPLES[kind]]
        assert sum(map(len, records.values())) == 1

    def test_metrics_records_load_in_position_order(self, tmp_path):
        directory = _write_export(tmp_path, [(3, [1, 2]), (0, [4])])
        metrics = export.load_export(directory)["metrics"]
        assert [record["position"] for record in metrics] == [0, 3]
        assert metrics[1]["name"] == "cell-3"
        merged = merged_registry(export.load_export(directory))
        assert merged.counter("requests").value == 3
        assert merged.histogram("locate_hops").max == 4
        assert merged.counter_map("events")["crash"] == 4

    def test_profiles_round_trip_and_label_the_dict(self, tmp_path):
        directory = _write_export(tmp_path, [(0, [1])])
        profiles = export.load_export(directory)["profile"]
        assert [p["label"] for p in profiles] == ["shard-0"]
        assert export.profiles_dict(profiles)["shard-0"][CELL_RUN]["count"] == 1

    def test_export_dir_clears_only_an_earlier_export(self, tmp_path):
        _write_export(tmp_path, [(0, [1]), (1, [2])])
        (tmp_path / "cell-0000.jsonl").write_text("a --traces file\n")
        export.export_dir(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["cell-0000.jsonl"]


def _damaged(directory, content):
    directory.mkdir()
    (directory / "obs-cell-0000.jsonl").write_text(content)
    return directory / "obs-cell-0000.jsonl"


GOOD_LINE = '{"kind": "cache", "counters": {}}\n'


class TestDamagedExports:
    @pytest.mark.parametrize("content, line", [
        (GOOD_LINE + GOOD_LINE[:20], 2),                   # torn final line
        (GOOD_LINE + "{garbage\n" + GOOD_LINE, 2),         # garbage mid-file
        (GOOD_LINE + '{"kind": "bogus"}\n', 2),            # unknown kind
        ('[1, 2]\n' + GOOD_LINE, 1),                       # not an object
        (GOOD_LINE + GOOD_LINE[:-1], 2),                   # newline torn off
    ], ids=["torn", "garbage", "unknown-kind", "not-object", "no-newline"])
    def test_damage_names_the_file_and_line(self, tmp_path, content, line):
        path = _damaged(tmp_path / "obs", content)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
            export.load_export(tmp_path / "obs")

    @pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
    def test_no_records_is_an_error(self, tmp_path, make):
        directory = tmp_path / "obs"
        if make:
            directory.mkdir()
        with pytest.raises(ValueError, match=re.escape(str(directory))):
            export.load_export(directory)


class TestSummarizeAndDiff:
    def test_summarize_reports_all_sections(self, tmp_path):
        directory = _write_export(tmp_path, [(0, [1, 2, 2]), (1, [3])])
        summary = summarize_export(directory)
        assert summary["cells"] == 2
        assert summary["spans"]["cell-run"] == {"count": 2, "hops": 0}
        assert summary["spans"]["request"]["count"] == 2
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
