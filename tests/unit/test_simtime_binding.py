"""The timed overlay's seams: route programs and the exemplar reservoir.

End-to-end behaviour (digests, replay, worker parity, golden pins) lives in
the integration suite; these tests drive :class:`TimedOverlay` directly —
``begin_request`` / the tap calls / ``finish_request`` on a small ring —
and pin what a user can see of the pricing loop: latencies, link busy
time, queue visits and the exported timelines, each computed by hand.
"""

import random

import pytest

import repro.simtime.binding as binding
from repro.simtime import (
    FifoResource,
    LinkTiming,
    TimedOverlay,
    TimeModelSpec,
    link_key,
)
from repro.workload import (
    ArrivalSpec,
    ScenarioSpec,
    WorkloadDriver,
    build_topology,
)
from repro.workload.metrics import WorkloadMetrics

#: Jitter-free, so a latency is a pure function of the path and the queues.
MODEL = TimeModelSpec(
    default_link=LinkTiming(latency=0.001),
    node_service=0.0005,
    link_overrides=((link_key(2, 3), LinkTiming(latency=0.004, capacity=2)),),
    node_overrides=(("3", 0.002), ("5", 0.0)),
)


def overlay_on(network, model=MODEL, exemplar_k=8):
    metrics = WorkloadMetrics(universe_size=network.size)
    metrics.enable_timing()
    return TimedOverlay(network, model, seed=1, metrics=metrics,
                        exemplar_k=exemplar_k), metrics


def overlay_on_ring(model=MODEL, exemplar_k=8, size=8):
    network = build_topology(f"ring:{size}").build_network(
        delivery_mode="unicast"
    )
    return overlay_on(network, model, exemplar_k)


def send(overlay, at, source, destination):
    """One single-message request; returns its latency in microseconds."""
    overlay.begin_request(at)
    overlay.on_payload(source, destination)
    latency_us, _ = overlay.finish_request()
    return latency_us


class TestRoutePrograms:
    def test_both_directions_of_a_link_contend_on_one_queue(self):
        overlay, _ = overlay_on_ring()
        assert send(overlay, 0.0, 0, 1) == 1000 + 500
        # The reverse message arrives while the first still holds the
        # capacity-1 link: it waits the remaining millisecond — and then
        # finds node 0's server idle, which is not node 1's.
        assert send(overlay, 0.0, 1, 0) == 1000 + 1000 + 500
        # Forward again, half a millisecond later: behind both on the link
        # ([0, 2] ms is taken), and node 1 has long finished the first.
        assert send(overlay, 0.0005, 0, 1) == 1500 + 1000 + 500

    def test_a_drained_pair_prices_the_same_every_time(self):
        overlay, metrics = overlay_on_ring()
        assert [send(overlay, at, 0, 1) for at in (0.0, 1.0, 2.0)] == [1500] * 3
        overlay.finalize()
        assert metrics.queue_wait.mean == 0.0
        assert dict(metrics.link_busy) == {link_key(0, 1): 3000}

    @pytest.mark.parametrize("u,v", [(2, 3), (3, 2), (4, 5), (6, 7)])
    def test_overrides_resolve_to_the_models_timings(self, u, v):
        overlay, metrics = overlay_on_ring()
        timing = MODEL.link_timing(link_key(u, v))
        service = MODEL.service_time(repr(v))
        assert send(overlay, 0.0, u, v) == round(
            (timing.latency + service) * 1_000_000
        )
        overlay.finalize()
        # A node that serves in zero time has no queue to visit.
        assert metrics.queue_depth.count == (2 if service else 1)
        assert dict(metrics.link_busy) == {
            link_key(u, v): round(timing.latency * 1_000_000)
        }

    def test_link_capacity_comes_from_the_override(self):
        overlay, metrics = overlay_on_ring()
        # Two simultaneous messages fit the capacity-2 link side by side;
        # node 3 then serves them one after the other (2 ms each).
        assert send(overlay, 0.0, 2, 3) == 4000 + 2000
        assert send(overlay, 0.0, 2, 3) == 4000 + 2000 + 2000
        # The third finds both link slots taken until t = 4 ms.
        assert send(overlay, 0.0, 2, 3) == 4000 + 4000 + 2000
        overlay.finalize()
        # Six visits; one waited 2 ms at the node, one 4 ms at the link.
        assert metrics.queue_wait.mean * metrics.queue_wait.count == 6000

    def test_a_multi_hop_path_visits_every_station_in_order(self):
        overlay, metrics = overlay_on_ring()
        # 1 -> 2 -> 3: default hop, then the slow override into node 3.
        assert send(overlay, 0.0, 1, 3) == 1000 + 500 + 4000 + 2000
        overlay.finalize()
        assert metrics.queue_depth.count == 4  # two links, two nodes
        assert dict(metrics.link_busy) == {
            link_key(1, 2): 1000, link_key(2, 3): 4000,
        }

    def test_two_messages_of_one_batch_interleave_hop_by_hop(self):
        # 0 fans out to 2 (0-1-2) and 3 (0-1-2-3); launch order is repr
        # order, so the message to 2 goes first.  In milliseconds:
        #   to 2: link 0-1 [0, 1]   node 1 [1, 1.5]
        #   to 3: link 0-1 [1, 2]   node 1 [2, 2.5]     waited 1 at launch
        #   to 2: link 1-2 [1.5, 2.5]  node 2 [2.5, 3]  arrived
        #   to 3: link 1-2 [2.5, 3.5]  node 2 [3.5, 4]
        #   to 3: link 2-3 [4, 8]      node 3 [8, 10]   arrived
        # The two launches are priced on the spot; the three later hops
        # come off the kernel's heap in time order, the two messages
        # alternating on links 0-1 and 1-2.
        overlay, metrics = overlay_on_ring()
        overlay.begin_request(0.0)
        overlay.on_delivery(0, frozenset({0, 2, 3}), "query", "unicast")
        latency_us, completed_at = overlay.finish_request()
        assert (latency_us, completed_at) == (10_000, pytest.approx(0.010))
        (record,) = overlay.exemplars()
        (batch,) = record["batches"]
        to_2, to_3 = batch["messages"]
        assert (to_2["destination"], to_3["destination"]) == ("2", "3")
        assert to_2["segments"] == [
            ["link_xfer", link_key(0, 1), 0, 1000],
            ["node_service", "1", 1000, 1500],
            ["link_xfer", link_key(1, 2), 1500, 2500],
            ["node_service", "2", 2500, 3000],
        ]
        assert to_3["segments"] == [
            ["link_wait", link_key(0, 1), 0, 1000],
            ["link_xfer", link_key(0, 1), 1000, 2000],
            ["node_service", "1", 2000, 2500],
            ["link_xfer", link_key(1, 2), 2500, 3500],
            ["node_service", "2", 3500, 4000],
            ["link_xfer", link_key(2, 3), 4000, 8000],
            ["node_service", "3", 8000, 10_000],
        ]
        # The barrier message is the one the request is blamed on.
        assert sum(entry[3] for entry in record["critical_path"]) == 10_000
        overlay.finalize()
        assert metrics.queue_depth.count == 10
        assert dict(metrics.link_busy) == {
            link_key(0, 1): 2000, link_key(1, 2): 2000, link_key(2, 3): 4000,
        }

    def test_programs_follow_the_planners_routing_table(self):
        network = build_topology("ring:8").build_network(
            delivery_mode="unicast"
        )
        overlay, _ = overlay_on(network)
        assert send(overlay, 0.0, 0, 1) == 1500
        # With 0-1 down the message goes the long way round: seven default
        # links, six half-millisecond nodes, node 5 free, and the slow
        # 3-2 link into node 2 — and back to one hop after the repair.
        network.fail_link(0, 1)
        assert send(overlay, 1.0, 0, 1) == 6 * 1000 + 4000 + 5 * 500 + 2000
        network.restore_link(0, 1)
        assert send(overlay, 2.0, 0, 1) == 1500

    def test_ideal_mode_prices_one_virtual_link(self):
        network = build_topology("ring:8").build_network(delivery_mode="ideal")
        overlay, metrics = overlay_on(network)
        # 1 -> 3 directly: no override is keyed on that pair, node 3's is.
        assert send(overlay, 0.0, 1, 3) == 1000 + 2000
        overlay.finalize()
        assert dict(metrics.link_busy) == {link_key(1, 3): 1000}

    @pytest.mark.parametrize(
        "at", [-0.5, float("nan"), float("inf")]
    )
    def test_a_batch_cannot_launch_outside_the_clock(self, at):
        overlay, metrics = overlay_on_ring()
        with pytest.raises(ValueError, match="finite and >= 0"):
            overlay.begin_request(at)
        # The request never began, so its tap call admits nothing.
        overlay.on_payload(0, 1)
        overlay.finalize()
        assert metrics.queue_depth.count == 0
        assert dict(metrics.link_busy) == {}


class TestOneStationPerKey:
    @pytest.mark.parametrize("delivery_mode", ["ideal", "unicast"])
    def test_a_run_builds_only_the_stations_it_keeps(
        self, monkeypatch, delivery_mode
    ):
        # A station is built when its link or node key is first met, not
        # once per compiled hop and then thrown away.
        built = []

        class CountedFifo(FifoResource):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        kept = []
        finalize = TimedOverlay.finalize

        def keeping(self):
            kept.extend([*self._links.values(), *self._nodes.values()])
            finalize(self)

        monkeypatch.setattr(binding, "FifoResource", CountedFifo)
        monkeypatch.setattr(TimedOverlay, "finalize", keeping)
        WorkloadDriver(ScenarioSpec(
            name="stations",
            topology="manhattan:4",
            strategy="manhattan",
            operations=300,
            clients=16,
            servers=4,
            ports=4,
            delivery_mode=delivery_mode,
            seed=22,
            arrival=ArrivalSpec(kind="burst", burst_size=40, burst_gap=0.05),
            time_model=MODEL,
        )).run()
        # Both directions of a link and every hop into a node share one.
        assert len(kept) > 16
        assert len(built) == len(kept)
        assert {id(station) for station in built} == {
            id(station) for station in kept
        }


class TestLazyExemplars:
    @staticmethod
    def traffic(seed, requests=60):
        """Random single-message requests on the ring: latencies take a
        handful of distinct values (hop distance x fixed costs), so ties
        are the norm, not the exception."""
        rng = random.Random(seed)
        at = 0.0
        for _ in range(requests):
            at += rng.choice((0.0, 0.0005, 0.05))
            source = rng.randrange(8)
            yield at, source, (source + rng.randrange(1, 5)) % 8

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_reservoir_equals_eager_push_then_pop(self, seed, k):
        # The oracle keeps every request's record (a reservoir that never
        # fills materialises eagerly) and ranks afterwards.
        everything, _ = overlay_on_ring(exemplar_k=10_000)
        lazy, _ = overlay_on_ring(exemplar_k=k)
        for at, source, destination in self.traffic(seed):
            send(everything, at, source, destination)
            send(lazy, at, source, destination)
        ranked = sorted(
            everything.exemplars(),
            key=lambda record: (-record["latency_us"], record["request"]),
        )
        assert len({r["latency_us"] for r in ranked}) < len(ranked) / 2
        assert lazy.exemplars() == ranked[:k]

    def test_only_kept_requests_are_materialised(self, monkeypatch):
        built = []
        original = TimedOverlay._exemplar

        def counting(self, *args):
            built.append(self._sequence)
            return original(self, *args)

        monkeypatch.setattr(TimedOverlay, "_exemplar", counting)
        overlay, _ = overlay_on_ring(exemplar_k=2)
        # Latencies 1.5ms, 3ms, 1.5ms, 1.5ms, 4.5ms: requests 0 and 1 fill
        # the reservoir, 2 and 3 tie with its minimum and lose to the
        # earlier request, 4 evicts request 0.
        for index, hops in enumerate((1, 2, 1, 1, 3)):
            send(overlay, float(index), 4, (4 + hops) % 8 if hops < 3 else 7)
        assert built == [0, 1, 4]
        assert [r["request"] for r in overlay.exemplars()] == [4, 1]

    def test_zero_k_materialises_nothing(self, monkeypatch):
        monkeypatch.setattr(
            TimedOverlay, "_exemplar",
            lambda self, *args: pytest.fail("materialised an exemplar"),
        )
        overlay, metrics = overlay_on_ring(exemplar_k=0)
        for at, source, destination in self.traffic(3, requests=20):
            send(overlay, at, source, destination)
        assert overlay.exemplars() == []
        overlay.finalize()
        assert metrics.request_latency.count == 20


class TestOneFlushPerRun:
    def test_the_registry_is_written_by_finalize_alone(self):
        overlay, metrics = overlay_on_ring()
        for at in (0.0, 0.0, 1.0):
            send(overlay, at, 1, 3)
        untouched = metrics.registry.to_dict()
        assert untouched["request_latency_us"]["count"] == 0
        assert untouched["queue_depth"]["count"] == 0
        assert untouched["timeline"]["windows"] == []
        assert untouched["link_busy_us"]["counts"] == {}
        overlay.finalize()
        flushed = metrics.registry.to_dict()
        assert flushed["request_latency_us"]["count"] == 3
        assert flushed["queue_depth"]["count"] == 3 * 4  # two links, two nodes
        assert [fields["served"] for _, fields in flushed["timeline"]["windows"]] \
            == [2, 1]
        assert flushed["link_busy_us"]["counts"] == {
            link_key(1, 2): 3000, link_key(2, 3): 12_000,
        }
        assert metrics.virtual_time_us == 1_007_500
