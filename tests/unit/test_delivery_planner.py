"""The fault-aware delivery planner.

Covers the headline bugfix (unicast under faults no longer rebuilds a
routing table per message), plan/tree memoization keyed on the fault-plan
revision, parity with naive per-call routing across fault revisions, and
the plan-event counters exposed through :class:`MessageStats`.
"""

import random

import pytest

from repro.core.types import Port
from repro.network.broadcast import multicast, unicast
from repro.network.delivery import (
    PLAN_HIT,
    PLAN_MISS,
    ROUTE_HIT,
    ROUTE_MISS,
    TREE_HIT,
    TREE_MISS,
    DeliveryPlanner,
    plan_hit_rates,
)
from repro.network.faults import link_flaps
from repro.network.routing import RoutingTable
from repro.network.simulator import Network
from repro.network.stats import POST
from repro.topologies import ManhattanTopology


@pytest.fixture
def grid_network():
    """A 5x5 Manhattan grid network (interesting multi-hop routes)."""
    return Network(ManhattanTopology.square(5).graph, delivery_mode="unicast")


def _count_routing_table_builds(monkeypatch):
    """Every RoutingTable made from now on, by its constructor or as a
    fault mask (``RoutingTable.masked``, however it builds the table):
    distinct objects, keyed by ``id`` and kept alive."""
    built = {}
    init, masked = RoutingTable.__init__, RoutingTable.masked

    def counting_init(self, graph):
        init(self, graph)
        built[id(self)] = self

    def counting_masked(self, *args):
        table = masked(self, *args)
        built[id(table)] = table
        return table

    monkeypatch.setattr(RoutingTable, "__init__", counting_init)
    monkeypatch.setattr(RoutingTable, "masked", counting_masked)
    return built


class TestUnicastUnderFaults:
    def test_parity_with_naive_per_call_routing(self, grid_network):
        """Planner routes == naive per-call RoutingTable routes, across
        several fault revisions."""
        net = grid_network
        graph = net.graph
        sources = [(0, 0), (2, 2), (4, 1)]
        target_sets = [
            frozenset({(4, 4), (0, 4), (3, 3)}),
            frozenset({(1, 1), (2, 3)}),
            frozenset(graph.nodes),
        ]
        fault_scripts = [
            lambda: None,
            lambda: net.crash_node((2, 1)),
            lambda: net.fail_link((3, 3), (3, 4)),
            lambda: net.recover_node((2, 1)),
        ]
        for mutate in fault_scripts:
            mutate()
            faults = net.faults if net.faults.fault_count else None
            for source in sources:
                for targets in target_sets:
                    planned = net.planner.plan(source, targets, "unicast")
                    # The naive path: a fresh RoutingTable per call (the
                    # pre-planner behaviour).
                    naive = unicast(
                        graph, RoutingTable(graph), source, targets, faults
                    )
                    assert planned.reached == naive.reached
                    assert planned.hops == naive.hops
                    assert planned.unreachable == naive.unreachable

    def test_multicast_parity_with_naive(self, grid_network):
        net = grid_network
        net.crash_node((1, 2))
        faults = net.faults
        for source in [(0, 0), (4, 4)]:
            targets = frozenset({(0, 4), (4, 0), (2, 2)})
            planned = net.planner.plan(source, targets, "multicast")
            naive = multicast(net.graph, source, targets, faults)
            assert planned.reached == naive.reached
            assert planned.hops == naive.hops
            assert planned.unreachable == naive.unreachable

    def test_routing_tables_built_per_revision_not_per_message(
        self, grid_network, monkeypatch
    ):
        """The regression the planner exists to prevent: #RoutingTable
        constructions is O(#fault revisions), not O(#messages)."""
        net = grid_network
        net.crash_node((2, 2))  # revision 1
        built = _count_routing_table_builds(monkeypatch)
        messages = 200
        for i in range(messages):
            net.deliver(
                (0, 0), frozenset({(4, 4), (0, 4)}), POST, mode="unicast"
            )
            net.send_payload((0, 0), (4, 4))
        assert len(built) == 1  # one surviving table for the revision
        net.crash_node((3, 3))  # revision 2
        net.deliver((0, 0), frozenset({(4, 4)}), POST, mode="unicast")
        assert len(built) == 2
        # Fault-free epochs reuse the network's static table: no builds.
        net.recover_node((2, 2))
        net.recover_node((3, 3))
        for _ in range(50):
            net.deliver((0, 0), frozenset({(4, 4)}), POST, mode="unicast")
        assert len(built) == 2
        assert net.planner.routing_table() is net.routing
        assert net.routing not in built.values()

    def test_unicast_traffic_hits_plan_cache(self, grid_network):
        """Repeated posts/queries with the same target set are O(1): one
        plan miss, then hits."""
        net = grid_network
        net.crash_node((2, 2))
        targets = frozenset({(4, 4), (0, 4)})
        for _ in range(10):
            net.deliver((0, 0), targets, POST, mode="unicast")
        events = net.stats.plan_events
        assert events[PLAN_MISS] == 1
        assert events[PLAN_HIT] == 9


class TestPlannerCaches:
    def test_spanning_tree_memoized_per_source(self, grid_network):
        planner = grid_network.planner
        tree_a = planner.spanning_tree((0, 0))
        tree_b = planner.spanning_tree((0, 0))
        assert tree_a is tree_b
        assert grid_network.stats.plan_events[TREE_MISS] == 1
        assert grid_network.stats.plan_events[TREE_HIT] == 1

    def test_revision_change_invalidates_plans(self, grid_network):
        net = grid_network
        targets = frozenset({(4, 4)})
        before = net.planner.plan((0, 0), targets, "unicast")
        assert before.reached == {(4, 4)}
        # Cut every path to (4, 4) by crashing its two neighbours.
        net.crash_node((3, 4))
        net.crash_node((4, 3))
        after = net.planner.plan((0, 0), targets, "unicast")
        assert after.reached == frozenset()
        assert after.unreachable == {(4, 4)}

    def test_caches_pruned_on_revision_change(self, grid_network):
        net = grid_network
        net.planner.plan((0, 0), frozenset({(4, 4)}), "multicast")
        assert net.planner.cache_info()["plans"] == 1
        net.crash_node((1, 1))
        info = net.planner.cache_info()
        assert info["plans"] == 0
        assert info["trees"] == 0
        assert info["revision"] == net.faults.revision

    def test_route_miss_once_per_faulted_revision(self, grid_network):
        net = grid_network
        net.crash_node((2, 2))
        for _ in range(5):
            net.planner.routing_table()
        assert net.stats.plan_events[ROUTE_MISS] == 1

    def test_a_tree_made_first_leaves_the_revision_its_route_miss(
        self, grid_network
    ):
        """A multicast tree is a row of the revision's surviving table, so
        the table may exist before anyone asks for it; the first ask is
        still the revision's one ``route_miss``."""
        net = grid_network
        net.crash_node((2, 2))
        tree = net.planner.spanning_tree((0, 0))
        table = net.planner.routing_table()
        assert net.planner.routing_table() is table
        assert table.spanning_tree((0, 0)) is tree
        assert net.stats.plan_events == {
            TREE_MISS: 1, ROUTE_MISS: 1, ROUTE_HIT: 1,
        }

    def test_ideal_plans_track_liveness(self, grid_network):
        net = grid_network
        targets = frozenset({(1, 1), (2, 2)})
        first = net.planner.plan((0, 0), targets, "ideal")
        assert first.reached == targets
        assert first.hops == 2
        net.crash_node((2, 2))
        second = net.planner.plan((0, 0), targets, "ideal")
        assert second.reached == {(1, 1)}
        assert second.unreachable == {(2, 2)}
        assert second.hops == 1


class TestDeliverSemanticsPreserved:
    def test_duplicate_destinations_charged_per_occurrence(self, grid_network):
        net = grid_network
        single = net.deliver((0, 0), [(4, 4)], POST, mode="unicast")
        doubled = net.deliver((0, 0), [(4, 4), (4, 4)], POST, mode="unicast")
        assert doubled.hops == 2 * single.hops
        assert doubled.reached == single.reached

    def test_duplicate_destinations_under_faults(self, grid_network):
        net = grid_network
        net.crash_node((2, 2))
        single = net.deliver((0, 0), [(4, 4)], POST, mode="unicast")
        doubled = net.deliver((0, 0), [(4, 4), (4, 4)], POST, mode="unicast")
        assert doubled.hops == 2 * single.hops

    def test_plan_hit_rates_helper(self, grid_network):
        net = grid_network
        net.crash_node((2, 2))
        targets = frozenset({(4, 4)})
        for _ in range(4):
            net.deliver((0, 0), targets, POST, mode="unicast")
        rates = plan_hit_rates(net.stats.plan_events)
        assert rates["plan"] == 0.75  # 1 miss, 3 hits
        assert rates["tree"] == 0.0   # no multicast traffic at all

    def test_shared_surviving_table_serves_unicast_prebuilt(self, grid_network):
        """broadcast.unicast honours a prebuilt surviving table."""
        net = grid_network
        net.crash_node((2, 2))
        shared = net.planner.routing_table()
        via_shared = unicast(
            net.graph,
            net.routing,
            (0, 0),
            frozenset({(4, 4)}),
            net.faults,
            surviving_table=shared,
        )
        via_rebuild = unicast(
            net.graph, net.routing, (0, 0), frozenset({(4, 4)}), net.faults
        )
        assert via_shared == via_rebuild


class TestInvalidationAcrossFaultTimelines:
    """Satellite regression suite: the planner's caches must invalidate and
    re-warm correctly across a *full* fault timeline — fail, heal, then fail
    the same link again — not just across a single revision change."""

    LINK = ((2, 2), (2, 3))
    TARGETS = frozenset({(4, 4), (0, 4)})

    def _route_messages(self, net, count=5):
        for _ in range(count):
            net.deliver((0, 0), self.TARGETS, POST, mode="unicast")

    def test_fail_heal_fail_same_link_counters(self, grid_network):
        """Each epoch pays exactly one plan miss; every other message in the
        epoch is a hit.  Fault-free epochs use the static table (no route
        events at all)."""
        net = grid_network
        events = net.stats.plan_events

        self._route_messages(net)  # epoch 0: fault-free
        assert events == {PLAN_MISS: 1, PLAN_HIT: 4}

        net.fail_link(*self.LINK)  # epoch 1: link down
        self._route_messages(net)
        assert events[PLAN_MISS] == 2
        assert events[PLAN_HIT] == 8
        assert events[ROUTE_MISS] == 1  # one surviving-table build

        net.restore_link(*self.LINK)  # epoch 2: healed (fault-free again)
        self._route_messages(net)
        assert events[PLAN_MISS] == 3
        assert events[PLAN_HIT] == 12
        assert events[ROUTE_MISS] == 1  # static table again, no rebuild

        net.fail_link(*self.LINK)  # epoch 3: the *same* link fails again
        self._route_messages(net)
        assert events[PLAN_MISS] == 4  # the healed-epoch plan must not leak
        assert events[PLAN_HIT] == 16
        assert events[ROUTE_MISS] == 2  # a fresh surviving table

    def test_fail_heal_fail_same_link_routes(self, grid_network, monkeypatch):
        """Routing outcomes track the timeline: the detour appears when the
        link fails, disappears when it heals, reappears on the second
        failure — and surviving tables are built once per faulted epoch."""
        net = grid_network
        source, target = (2, 0), frozenset({(2, 4)})
        baseline = net.planner.plan(source, target, "unicast").hops

        built = _count_routing_table_builds(monkeypatch)
        net.fail_link(*self.LINK)
        detour = net.planner.plan(source, target, "unicast").hops
        assert detour > baseline

        net.restore_link(*self.LINK)
        assert net.planner.plan(source, target, "unicast").hops == baseline

        net.fail_link(*self.LINK)
        assert net.planner.plan(source, target, "unicast").hops == detour
        assert len(built) == 2  # one per faulted epoch, zero when healed

    def test_generated_flap_timeline_drives_invalidation(self, grid_network):
        """A link_flaps timeline applied event-by-event: every event bumps
        the revision, and each inter-event epoch pays exactly one miss for
        the repeated plan."""
        net = grid_network
        timeline = link_flaps(
            net.graph, random.Random(7), flaps=4, start=0.0, period=1.0,
            downtime=0.5,
        )
        assert len(timeline) == 8
        events = net.stats.plan_events
        epochs = 0
        for event in timeline:
            net.apply_fault(event)
            epochs += 1
            self._route_messages(net, count=3)
            assert events[PLAN_MISS] == epochs
            assert events[PLAN_HIT] == 2 * epochs
        # Revisions advanced one per applied event.
        assert net.planner.cache_info()["revision"] == len(timeline)

    def test_route_hits_accumulate_within_faulted_epoch(self, grid_network):
        net = grid_network
        net.fail_link(*self.LINK)
        for _ in range(3):
            net.send_payload((0, 0), (4, 4))
        assert net.stats.plan_events[ROUTE_MISS] == 1
        assert net.stats.plan_events[ROUTE_HIT] == 2


class TestPayloadRouteEvents:
    """Under an active fault every payload asks the planner for the shared
    table exactly once — same-node payloads included — and that question
    is a route event, which ``MatrixReport.digest()`` covers."""

    LINK = ((2, 2), (2, 3))

    @staticmethod
    def _route_events(net):
        events = net.stats.plan_events
        return events.get(ROUTE_HIT, 0) + events.get(ROUTE_MISS, 0)

    def test_same_node_payload_is_one_route_event(self, grid_network):
        net = grid_network
        net.fail_link(*self.LINK)
        before = self._route_events(net)
        assert net.send_payload((1, 1), (1, 1)) == 0
        assert self._route_events(net) == before + 1

    def test_distinct_node_payload_is_one_route_event(self, grid_network):
        net = grid_network
        net.fail_link(*self.LINK)
        net.planner.routing_table()  # the revision's one route_miss
        before = self._route_events(net)
        assert net.send_payload((0, 0), (0, 1)) == 1
        assert self._route_events(net) == before + 1
        assert net.stats.plan_events[ROUTE_MISS] == 1

    def test_fault_free_payloads_record_no_route_event(self, grid_network):
        net = grid_network
        net.send_payload((1, 1), (1, 1))
        net.send_payload((0, 0), (0, 1))
        assert self._route_events(net) == 0


def test_message_stats_families_pinned_for_a_short_script():
    """Post, fail a link, query, two payloads (neighbour, self), crash a
    rendezvous node, query again — all six ``MessageStats`` families as
    literals, so a planner event or a dropped message that moves shows in
    tier-1 and not only in the ledger grid's digest."""
    net = Network(ManhattanTopology.square(4).graph, delivery_mode="unicast")
    port = Port("svc")
    row = frozenset((1, c) for c in range(4))
    column = frozenset((r, 2) for r in range(4))
    net.post((1, 0), port, row)
    net.fail_link((1, 1), (1, 2))
    first = net.query((3, 2), port, column)
    assert (first.found, first.query_hops, first.reply_hops) == (True, 6, 2)
    assert first.responding_nodes == {(1, 2)}
    assert net.send_payload((3, 2), (2, 2)) == 1
    assert net.send_payload((3, 2), (3, 2)) == 0
    net.crash_node((1, 2))
    second = net.query((3, 2), port, column)
    assert (second.found, second.query_hops, second.reply_hops) == (False, 6, 0)
    assert second.queried_nodes == {(0, 2), (2, 2), (3, 2)}
    stats = net.stats
    assert stats.hops == {"post": 6, "query": 12, "reply": 2, "payload": 1}
    assert stats.messages == {"post": 4, "query": 8, "reply": 1, "payload": 2}
    assert stats.delivered == {"post": 4, "query": 7, "reply": 1, "payload": 2}
    assert stats.dropped == {"query": 1}
    assert stats.node_load == {
        (1, 0): 1, (1, 1): 1, (1, 2): 2, (1, 3): 1,
        (0, 2): 2, (2, 2): 2, (3, 2): 2,
    }
    assert stats.plan_events == {
        "plan_miss": 3, "route_miss": 2, "route_hit": 4,
    }
