"""The timed overlay's seams: the station table and the exemplar reservoir.

End-to-end behaviour (digests, replay, worker parity, golden pins) lives in
the integration suite; these tests drive :class:`TimedOverlay` directly —
``begin_request`` / ``on_payload`` / ``finish_request`` on a small ring —
to pin the two pieces of bookkeeping the pricing loop leans on.
"""

import random

import pytest

from repro.simtime import LinkTiming, TimedOverlay, TimeModelSpec, link_key
from repro.workload import build_topology
from repro.workload.metrics import WorkloadMetrics

#: Jitter-free, so a latency is a pure function of the path and the queues.
MODEL = TimeModelSpec(
    default_link=LinkTiming(latency=0.001),
    node_service=0.0005,
    link_overrides=((link_key(2, 3), LinkTiming(latency=0.004, capacity=2)),),
    node_overrides=(("3", 0.002), ("5", 0.0)),
)


def overlay_on_ring(model=MODEL, exemplar_k=8, size=8):
    network = build_topology(f"ring:{size}").build_network(
        delivery_mode="unicast"
    )
    metrics = WorkloadMetrics(universe_size=size)
    metrics.enable_timing()
    return TimedOverlay(network, model, seed=1, metrics=metrics,
                        exemplar_k=exemplar_k), metrics


def send(overlay, at, source, destination):
    """One single-message request; returns its latency in microseconds."""
    overlay.begin_request(at)
    overlay.on_payload(source, destination)
    latency_us, _ = overlay.finish_request()
    return latency_us


class TestStationTable:
    def test_both_directions_of_a_link_contend_on_one_queue(self):
        overlay, _ = overlay_on_ring()
        assert send(overlay, 0.0, 0, 1) == 1000 + 500
        # The reverse message arrives while the first still holds the
        # capacity-1 link: it waits the remaining millisecond.
        assert send(overlay, 0.0, 1, 0) == 1000 + 1000 + 500
        forward, backward = overlay._station(0, 1), overlay._station(1, 0)
        assert forward[0] == backward[0] == link_key(0, 1)
        assert forward[1] is backward[1]
        assert forward[5] is not backward[5]  # node 1's queue vs node 0's

    def test_a_station_is_resolved_once_per_directed_pair(self):
        overlay, _ = overlay_on_ring()
        send(overlay, 0.0, 0, 1)
        resolved = dict(overlay._stations)
        send(overlay, 1.0, 0, 1)
        assert set(overlay._stations) == {(0, 1)}
        assert overlay._stations[(0, 1)] is resolved[(0, 1)]

    @pytest.mark.parametrize("u,v", [(2, 3), (3, 2), (4, 5), (6, 7)])
    def test_overrides_resolve_to_the_models_timings(self, u, v):
        overlay, _ = overlay_on_ring()
        key, link, latency, jitter, node_repr, node, service = \
            overlay._station(u, v)
        timing = MODEL.link_timing(link_key(u, v))
        assert (key, latency, jitter) == (
            link_key(u, v), timing.latency, timing.jitter
        )
        assert link.capacity == timing.capacity
        assert (node_repr, service) == (repr(v), MODEL.service_time(repr(v)))
        assert (node is None) == (service == 0.0)
        # ... and the priced message pays exactly that.
        assert send(overlay, 0.0, u, v) == round(
            (timing.latency + service) * 1_000_000
        )

    def test_a_multi_hop_path_visits_every_station_in_order(self):
        overlay, metrics = overlay_on_ring()
        # 1 -> 2 -> 3: default hop, then the slow override into node 3.
        assert send(overlay, 0.0, 1, 3) == 1000 + 500 + 4000 + 2000
        assert metrics.queue_depth.count == 4  # two links, two nodes
        assert dict(metrics.link_busy) == {
            link_key(1, 2): 1000, link_key(2, 3): 4000,
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
        assert metrics.request_latency.count == 20
