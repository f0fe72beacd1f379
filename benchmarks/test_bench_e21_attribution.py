"""E21 — tail-latency attribution: naming the bottleneck, with a share.

E20 showed *that* the centralized name server melts under bursts; E21
shows *where*, mechanically.  Every request's critical path — the chain of
link/queue/service segments that actually gated its completion — is blamed
onto ``phase:kind:where`` contributors, and the attribution must name the
centralized rendezvous node's inbound queue (``query:node_wait`` at the
rendezvous node) as the dominant contributor of the tail, with a share.

The whole pipeline is deterministic, so the shares are exact numbers,
asserted below as literals.
"""

from repro.obs import export
from repro.obs.attr import attribute_export
from repro.obs.spans import SpanRecorder
from repro.workload import SloSpec, run_scenario

from test_bench_e20_latency import latency_spec

#: E20's burst-against-centralized cell, with an SLO attached: 10ms
#: latency objective at p99, evaluated on 0.5s virtual windows.
SLO = SloSpec(latency_objective=0.01, latency_target=0.99,
              availability_target=0.999, window=0.5)


def attribution_spec():
    from dataclasses import replace

    return replace(latency_spec("centralized", "burst"), slo=SLO)


def run_attribution_experiment():
    return run_scenario(attribution_spec())


def test_bench_e21_attribution(tmp_path):
    result = run_attribution_experiment()

    # Materialize the obs export the CLI would write, then read it back
    # through the same path ``python -m repro obs attribute`` uses.
    obs_dir = export.export_dir(tmp_path / "obs")
    export.write_cell(
        obs_dir, 0, {"name": result.spec.name}, SpanRecorder(), result
    )
    attribution = attribute_export(obs_dir)

    # The headline: the rendezvous node's inbound queue IS the tail.
    top_tail = attribution["tail"]["contributors"][0]
    top_overall = attribution["overall"]["contributors"][0]
    assert top_tail["key"].startswith("query:node_wait:"), top_tail
    assert top_overall["key"] == top_tail["key"]
    # A structural fact of the burst workload, exact to the digit: the
    # rendezvous bottleneck is 99.1% of the tail's critical path.
    assert top_tail["share"] == 0.991
    assert top_overall["share"] == 0.9818

    # The decomposition is exact: blamed microseconds telescope to the
    # summed request latency, per exemplar and over the whole run.
    for exemplar in result.exemplars:
        assert sum(e[3] for e in exemplar["critical_path"]) \
            == exemplar["latency_us"]
    registry = result.metrics.registry
    blamed = sum(registry.counter_map("critical_path_us").values())
    summary = result.metrics.summary()
    slo = summary["slo"]
    assert blamed == registry.timeline(
        "timeline", slo["window_us"]
    ).total("latency_sum_us")

    # The SLO burn monitor sees the melt: the objective is breached from
    # the first window on.
    assert slo["latency_burn_rate"] > 1.0
    assert slo["first_breach_us"] == 0
    assert slo["breached_windows"] >= 1

    # Determinism: a rerun reproduces the attribution byte-for-byte.
    repeat = run_scenario(attribution_spec())
    assert repeat.exemplars == result.exemplars
    assert (
        dict(repeat.metrics.registry.counter_map("critical_path_us"))
        == dict(registry.counter_map("critical_path_us"))
    )
