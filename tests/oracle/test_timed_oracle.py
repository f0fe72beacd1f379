"""``TimedOverlay`` agrees with the naive time model, request by request.

The overlay's tap methods are wrapped, not changed: each wrapper records its
arguments as plain data and calls the original.  The oracle then prices the
recorded calls on its own and must reproduce every latency the overlay
returned and, per run, the timed instruments the registry holds.  Faults
and jitter stay out (the golden pins in
``tests/integration/test_simtime_differential.py`` cover them); everything
else a fault-free run can reach is in: multi-hop paths, a capacity-2 link, a
slow link override, a node that serves in zero time, queue-wait drops that
end a request's pipeline, and an SLO window.
"""

import pytest

from repro.simtime import LinkTiming, TimedOverlay, TimeModelSpec, link_key
from repro.workload import (
    ArrivalSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
    build_topology,
    run_scenario,
)
from repro.workload.metrics import WorkloadMetrics

from oracle.timed import batches, path, price

SLO = SloSpec(latency_objective=0.004, window=0.02)

SCENARIOS = {
    "ideal complete:16": ScenarioSpec(
        name="oracle-ideal", topology="complete:16", strategy="checkerboard",
        operations=240, clients=12, servers=4, ports=4, seed=5,
        delivery_mode="ideal", cache_addresses=False,
        arrival=ArrivalSpec(kind="burst", burst_size=30, burst_gap=0.04),
        popularity=PopularitySpec(kind="zipf"),
        time_model=TimeModelSpec(
            default_link=LinkTiming(0.0005, capacity=2),
            node_service=0.0004,
            timeout=0.0015,
            link_overrides=(("0<->1", LinkTiming(0.002)),),
            node_overrides=(("3", 0.0),),
        ),
        slo=SLO,
    ),
    "unicast manhattan:4": ScenarioSpec(
        name="oracle-unicast", topology="manhattan:4", strategy="manhattan",
        operations=240, clients=10, servers=4, ports=4, seed=8,
        delivery_mode="unicast", cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=1500.0),
        popularity=PopularitySpec(kind="zipf"),
        time_model=TimeModelSpec(
            default_link=LinkTiming(0.0004),
            node_service=0.0003,
            timeout=0.003,
            link_overrides=(("(1, 1)<->(1, 2)", LinkTiming(0.0006, capacity=2)),),
            node_overrides=(("(1, 1)", 0.0),),
        ),
        slo=SLO,
    ),
}


def recorded_run(spec, monkeypatch):
    """Run ``spec``; returns its requests as plain tap data, the latency
    the overlay priced each at, and the registry dump."""
    requests, latencies = [], []

    def wrap(name, record):
        original = getattr(TimedOverlay, name)

        def wrapper(self, *args, **kwargs):
            record(*args, **kwargs)
            result = original(self, *args, **kwargs)
            if name == "finish_request":
                latencies.append(result[0])
            return result

        monkeypatch.setattr(TimedOverlay, name, wrapper)

    def calls():
        return requests[-1][2] if requests and requests[-1][1] is None else []

    wrap("begin_request", lambda at: requests.append([at, None, []]))
    wrap("on_delivery", lambda source, reached, category, mode: calls().append(
        ("delivery", source, tuple(reached), category)))
    wrap("on_replies", lambda responders, client, mode: calls().append(
        ("replies", tuple(responders), client)))
    wrap("on_payload", lambda source, destination: calls().append(
        ("payload", source, destination)))
    wrap("finish_request", lambda span_id=None, ok=True: requests[-1].__setitem__(1, ok))
    result = run_scenario(spec)
    monkeypatch.undo()
    return [tuple(request) for request in requests], latencies, \
        result.metrics.registry.to_dict()


def plain_model(model):
    """The time model as the oracle's plain dict."""
    return {
        "latency": model.default_link.latency,
        "capacity": model.default_link.capacity,
        "links": {key: (timing.latency, timing.capacity)
                  for key, timing in model.link_overrides},
        "service": model.node_service,
        "nodes": dict(model.node_overrides),
        "timeout": model.timeout,
    }


def oracle_run(spec, requests):
    adjacency = None
    if spec.delivery_mode != "ideal":
        graph = build_topology(spec.topology).graph
        adjacency = {node: tuple(graph.neighbours(node)) for node in graph.nodes}
    return price(
        requests, plain_model(spec.time_model), adjacency,
        width_us=round(spec.slo.window * 1_000_000),
        objective_us=round(spec.slo.latency_objective * 1_000_000),
    )


def assert_agrees(spec, requests, latencies, registry):
    expected_latencies, expected = oracle_run(spec, requests)
    for index, (got, want) in enumerate(zip(latencies, expected_latencies)):
        assert got == want, f"request {index}: {got} us, oracle {want} us"
    for histogram in ("request_latency_us", "queue_wait_us", "queue_depth",
                      "timeline"):
        assert registry[histogram] == expected[histogram], histogram
    for family in ("link_busy_us", "critical_path_us"):
        assert registry[family]["counts"] == expected[family], family
    assert registry["message_timeouts"]["value"] == expected["message_timeouts"]
    assert registry["virtual_time_us"]["value"] == expected["virtual_time_us"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_overlay_prices_what_the_naive_model_prices(name, monkeypatch):
    spec = SCENARIOS[name]
    requests, latencies, registry = recorded_run(spec, monkeypatch)
    assert len(requests) == spec.operations
    assert_agrees(spec, requests, latencies, registry)


def test_a_route_cut_short_by_a_drop_prices_nothing_beyond_it():
    # On ring:8, 0 queries 1 and 3 (paths 0-1 and 0-1-2-3) over a slow,
    # capacity-1 link 0-1: the message to 3 waits 2 ms for it, more than
    # the timeout, so links 1-2 and 2-3 are compiled but never crossed.
    spec = ScenarioSpec(
        topology="ring:8", delivery_mode="unicast", slo=SLO,
        time_model=TimeModelSpec(
            node_service=0.0005, timeout=0.001,
            link_overrides=((link_key(0, 1), LinkTiming(0.002)),),
        ),
    )
    requests = [
        (0.0, True, [("delivery", 0, (1, 3), "query")]),
        (0.01, False, [("payload", 5, 7), ("replies", (4, 6, 5), 5)]),
    ]
    metrics = WorkloadMetrics()
    metrics.enable_timing(spec.slo)
    overlay = TimedOverlay(
        build_topology(spec.topology).build_network(delivery_mode="unicast"),
        spec.time_model, seed=1, metrics=metrics,
    )
    latencies = []
    for at, ok, calls in requests:
        overlay.begin_request(at)
        for call in calls:
            if call[0] == "delivery":
                overlay.on_delivery(call[1], frozenset(call[2]), call[3], "unicast")
            elif call[0] == "replies":
                overlay.on_replies(list(call[1]), call[2], "unicast")
            else:
                overlay.on_payload(*call[1:])
        latencies.append(overlay.finish_request(ok=ok)[0])
    overlay.finalize()
    registry = metrics.registry.to_dict()
    assert_agrees(spec, requests, latencies, registry)
    assert registry["message_timeouts"]["value"] == 1
    assert set(registry["link_busy_us"]["counts"]) == {
        link_key(0, 1), link_key(5, 6), link_key(6, 7), link_key(4, 5),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_scenarios_reach_what_they_claim(name, monkeypatch):
    spec = SCENARIOS[name]
    requests, _, registry = recorded_run(spec, monkeypatch)
    _, expected = oracle_run(spec, requests)
    windows = [fields for _, fields in expected["timeline"]["windows"]]
    assert expected["message_timeouts"] > 10
    assert sum(fields.get("bad_latency", 0) for fields in windows) > 10
    assert max(fields.get("depth_peak", 0) for fields in windows) >= 3
    zero_service = spec.time_model.node_overrides[0][0]
    slow = spec.time_model.link_overrides[0][0]
    assert slow in expected["link_busy_us"]
    blamed = {key.split(":", 2)[2] for key in expected["critical_path_us"]}
    assert zero_service not in blamed and slow in blamed
    kinds = {key.split(":")[1] for key in expected["critical_path_us"]}
    assert kinds == {"link_wait", "link_xfer", "node_wait", "node_service"}
    if spec.delivery_mode == "unicast":
        graph = build_topology(spec.topology).graph
        adjacency = {node: graph.neighbours(node) for node in graph.nodes}
        assert max(
            len(path(adjacency, *pair)) for _, _, calls in requests
            for _, pairs in batches(calls) for pair in pairs
        ) >= 4
    # A request whose first batch lost every message costs nothing further.
    assert expected["request_latency_us"]["buckets"][0][0] == 1
