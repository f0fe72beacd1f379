"""Smoke test of the E22 perf ledger (``run.py --smoke``), end to end.

Tier-1 collects this file, so it stays as cheap as the smoke sizes allow:
one full smoke run, one more count pass per in-process workload and two
single-workload runs.  It checks the harness, not the program's speed.
"""

import contextlib
import io
import json
import math

import pytest

import ledger_trace
import ledger_workloads
import run as ledger
from repro.processes.system import DistributedSystem

IN_PROCESS = [name for name in ledger_workloads.WORKLOAD_NAMES
              if name != "matrix_par2"]
ORIGINAL_REQUEST = DistributedSystem.__dict__["request"]


def run_main(argv):
    """``run.py``'s ``main`` with stdout captured: (exit code, lines)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = ledger.main(argv)
    return code, captured.getvalue().splitlines()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    code, lines = run_main(["--smoke", "--out", str(out)])
    return code, lines, json.loads(out.read_text())


def test_smoke_reports_every_workload_and_metric(smoke):
    code, lines, report = smoke
    assert code == 0, "\n".join(lines)
    assert list(report["workloads"]) == list(ledger_workloads.WORKLOAD_NAMES)
    printed = {tuple(line.split()[:2]) for line in lines if not line.startswith("#")}
    for name, section in report["workloads"].items():
        assert section["correct"] and section["failed"] == 0
        assert section["wall_s"]["count"] == 2
        for metric, _, _ in ledger.END_TO_END:
            value = section["end_to_end"][metric]
            assert math.isfinite(value) and value > 0, (name, metric, value)
            assert (name, metric) in printed
        assert set(section["per_layer"]) == {m for m, _, _ in ledger.PER_LAYER}
        assert all(math.isfinite(v) for v in section["per_layer"].values())
    assert any(line.startswith("# total ") for line in lines)
    leftovers = list(ledger.WORK_ROOT.iterdir()) if ledger.WORK_ROOT.exists() else []
    assert not leftovers, "scratch directories left behind"


def test_layer_call_counts_add_up_to_the_end_to_end_count(smoke):
    _, _, report = smoke
    for name, section in report["workloads"].items():
        layers = sum(
            section["per_layer"][f"{layer}.py_calls_per_req"]
            for layer in ledger_trace.COUNT_LAYERS
        )
        assert layers == pytest.approx(
            section["end_to_end"]["py_calls_per_req"], rel=1e-9
        ), name


def test_layers_that_do_no_work_report_zero(smoke):
    _, _, report = smoke
    for name, section in report["workloads"].items():
        layers = section["per_layer"]
        if name != "timed_burst":
            for layer in ("simtime.binding", "simtime.kernel", "simtime.queueing"):
                assert layers[f"{layer}.calls_per_req"] == 0, (name, layer)
    assert report["workloads"]["timed_burst"]["per_layer"][
        "simtime.binding.calls_per_req"] > 0
    assert report["workloads"]["matrix_warm"]["per_layer"][
        "exec.cache.hit_ratio"] == 1.0
    assert report["workloads"]["matrix_par2"]["per_layer"][
        "exec.plan.shards"] == 2


def test_span_file_section_is_well_formed(smoke):
    _, _, report = smoke
    spans = report["workloads"]["locate_flood"]["spans"]
    assert spans["columns"] == [
        "name", "start_ns", "end_ns", "parent", "repetition"
    ]
    assert "processes.system/DistributedSystem.request" in spans["names"]
    for index, (name_id, start, end, parent, repetition) in enumerate(
        spans["spans"]
    ):
        assert 0 <= name_id < len(spans["names"])
        assert start <= end and -1 <= parent < index
        assert repetition in (0, 1)


def test_wrappers_are_uninstalled(smoke):
    assert DistributedSystem.__dict__["request"] is ORIGINAL_REQUEST
    tracer = ledger_trace.SpanTracer()
    tracer.install(layers=("processes.system", "workload.matrix", "exec.plan"))
    assert DistributedSystem.__dict__["request"] is not ORIGINAL_REQUEST
    tracer.uninstall()
    assert DistributedSystem.__dict__["request"] is ORIGINAL_REQUEST


def test_exact_metrics_repeat_in_a_second_count_pass(smoke):
    _, _, first = smoke
    fresh = ledger_workloads.build_workloads(
        first["seed"], IN_PROCESS, smoke=True
    )
    with ledger.scratch_directory() as scratch:
        for workload in fresh:
            workload.prepare(scratch / workload.name)
            output, total, _, _ = ledger_trace.count_calls(workload.repeat)
            observed = workload.observe(output)
            pinned = first["workloads"][workload.name]["exact"]
            assert total / workload.requests == pinned["py_calls_per_req"]
            assert observed.hops / observed.hop_samples == pinned["hops_per_req"]
            assert ledger_workloads.fingerprint(observed.fields) == \
                pinned["fingerprint"]


def test_corrupted_repetition_fails_the_run(monkeypatch):
    real = ledger_workloads.fingerprint
    calls = {"count": 0}

    def corrupt_third_repetition(fields):
        calls["count"] += 1
        return "corrupted" if calls["count"] == 3 else real(fields)

    monkeypatch.setattr(ledger_workloads, "fingerprint", corrupt_third_repetition)
    code, lines = run_main(
        ["--smoke", "--workload", "matrix_warm", "--trace", "0"]
    )
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 0.9
    assert any("CHECK FAILED" in line for line in lines)


def test_alloc_probe_reports_a_peak():
    (workload,) = ledger_workloads.build_workloads(22, ["matrix_warm"], smoke=True)
    run = ledger.WorkloadRun(workload)
    with ledger.scratch_directory() as scratch:
        workload.prepare(scratch)
        ledger.alloc_pass(run)
    assert run.peak_alloc_kb > 0 and not run.problems


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ledger.CHECKOUT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == list(
        ledger_workloads.WORKLOAD_NAMES
    )
    for key, table in (("end_to_end", ledger.END_TO_END),
                       ("per_layer", ledger.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(table), key
    assert len(spec["per_layer"]) <= 128
