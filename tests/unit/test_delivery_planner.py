"""The fault-aware delivery planner: the one pricer of every fan-out.

Covers the headline bugfix (unicast under faults no longer rebuilds a
routing table per message), plan/tree memoization keyed on the fault-plan
revision, parity with the independent pricer of ``tests/oracle/delivery.py``
across fault revisions, random graphs and destination lists with repeats,
and the plan-event counters exposed through :class:`MessageStats`.
"""

import random

import pytest

from oracle import delivery as oracle
from oracle.ledger import growth
from repro.core.exceptions import UnknownNodeError
from repro.core.types import Port
from repro.network.delivery import (
    PLAN_HIT,
    PLAN_MISS,
    ROUTE_HIT,
    ROUTE_MISS,
    TREE_HIT,
    TREE_MISS,
    plan_hit_rates,
)
from repro.network.faults import LINK_DOWN, link_flaps
from repro.network.graph import Graph
from repro.network.routing import RoutingTable
from repro.network.simulator import Network
from repro.network.stats import POST, QUERY
from repro.strategies import ManhattanStrategy
from repro.topologies import ManhattanTopology

MODES = ("ideal", "unicast", "multicast")


@pytest.fixture
def grid_network():
    """A 5x5 Manhattan grid network (interesting multi-hop routes)."""
    return Network(ManhattanTopology.square(5).graph, delivery_mode="unicast")


def _survivors(net, failed_links=()):
    """The oracle's surviving adjacency of ``net`` now, from plain data:
    its down nodes as ``node_is_up`` reads them, and the links the test
    failed."""
    crashed = [node for node in net.graph.nodes if not net.node_is_up(node)]
    return oracle.surviving(net.graph.nodes, net.graph.edges, crashed, failed_links)


def _as_tuple(outcome):
    return outcome.reached, outcome.hops, outcome.unreachable


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
    def test_parity_with_the_oracle_across_revisions(self, grid_network):
        """Planner routes == the oracle's, across several fault revisions."""
        net = grid_network
        graph = net.graph
        sources = [(0, 0), (2, 2), (4, 1)]
        target_sets = [
            frozenset({(4, 4), (0, 4), (3, 3)}),
            frozenset({(1, 1), (2, 3)}),
            frozenset(graph.nodes),
        ]
        cut = ((3, 3), (3, 4))
        fault_scripts = [
            (lambda: None, ()),
            (lambda: net.crash_node((2, 1)), ()),
            (lambda: net.fail_link(*cut), (cut,)),
            (lambda: net.recover_node((2, 1)), (cut,)),
        ]
        for mutate, failed in fault_scripts:
            mutate()
            survivors = _survivors(net, failed)
            for source in sources:
                for targets in target_sets:
                    planned = net.planner.plan(source, targets, "unicast")
                    assert _as_tuple(planned) == oracle.price(
                        survivors, source, targets, "unicast"
                    )

    def test_multicast_parity_with_the_oracle(self, grid_network):
        net = grid_network
        net.crash_node((1, 2))
        survivors = _survivors(net)
        for source in [(0, 0), (4, 4)]:
            targets = frozenset({(0, 4), (4, 0), (2, 2)})
            planned = net.planner.plan(source, targets, "multicast")
            assert _as_tuple(planned) == oracle.price(
                survivors, source, targets, "multicast"
            )

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
        assert len(net.planner._plans) == 1
        net.crash_node((1, 1))
        net.planner.routing_table()  # the first ask under the new revision
        assert net.planner._plans == {} and net.planner._trees == {}

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

    @pytest.mark.parametrize("mode", MODES)
    def test_an_unknown_source_raises_in_every_mode(self, grid_network, mode):
        targets = frozenset({(0, 1), (2, 2), (4, 4)})
        with pytest.raises(UnknownNodeError) as caught:
            grid_network.planner.plan("nowhere", targets, mode)
        assert caught.value.args == UnknownNodeError("nowhere").args
        assert grid_network.planner._plans == {}

    def test_duplicates_record_the_plan_events_of_their_mode(self, grid_network):
        """A list with repeats is priced unmemoized in ``ideal`` and
        ``unicast`` (no plan event; under faults one route event for the
        unicast row) and planned as a set in ``multicast``."""
        net = grid_network
        net.fail_link((2, 2), (2, 3))
        repeated = [(4, 4), (0, 4), (4, 4)]
        expected = {
            "ideal": {},
            "unicast": {ROUTE_MISS: 1},
            "multicast": {PLAN_MISS: 1, TREE_MISS: 1},
        }
        for mode, events in expected.items():
            net.stats.reset()
            net.deliver((0, 0), repeated, POST, mode=mode)
            assert net.stats.plan_events == events, mode


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
        assert len(list(timeline)) == 8
        events = net.stats.plan_events
        epochs = 0
        for event in timeline:
            flip = net.fail_link if event.kind == LINK_DOWN else net.restore_link
            flip(*event.subject)
            epochs += 1
            self._route_messages(net, count=3)
            assert events[PLAN_MISS] == epochs
            assert events[PLAN_HIT] == 2 * epochs

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


def _random_faulted_network(rng):
    """A random graph on up to 14 nodes (self-loops, repeats and several
    components included) with random crashed nodes and failed links."""
    nodes = list(range(rng.randint(1, 14)))
    edges = [
        (rng.choice(nodes), rng.choice(nodes))
        for _ in range(rng.randint(0, 3 * len(nodes)))
    ]
    net = Network(Graph(nodes=nodes, edges=edges), delivery_mode="ideal")
    for node in rng.sample(nodes, rng.randint(0, len(nodes) // 3)):
        net.crash_node(node)
    links = sorted(net.graph.edges, key=repr)
    failed = rng.sample(links, rng.randint(0, len(links) // 3))
    for u, v in failed:
        net.fail_link(u, v)
    return net, failed


def _ledger_delta(stats, before, category):
    delta = growth(stats, before)
    return {
        family: delta[family].get(category, 0)
        for family in ("hops", "messages", "delivered", "dropped")
    }


class TestAgainstTheOracle:
    """Every delivery mode, priced by the planner through ``Network``,
    against the oracle's literal definitions over plain graph data."""

    def test_deliver_and_its_ledger_equal_the_oracle_on_random_networks(self):
        rng = random.Random(35)
        for trial in range(300):
            net, failed = _random_faulted_network(rng)
            survivors = _survivors(net, failed)
            nodes = net.graph.nodes
            live = [node for node in nodes if net.node_is_up(node)]
            for mode in MODES:
                source = rng.choice(live) if live else None
                if source is None:
                    continue
                repeated = [
                    rng.choice(nodes) for _ in range(rng.randint(0, 2 * len(nodes)))
                ]
                for destinations in (repeated, frozenset(repeated)):
                    expected = oracle.price(survivors, source, destinations, mode)
                    before = net.stats.snapshot()
                    outcome = net.deliver(source, destinations, POST, mode=mode)
                    assert _as_tuple(outcome) == expected, (trial, mode)
                    assert _ledger_delta(net.stats, before, POST) == \
                        oracle.ledger(destinations, expected), (trial, mode)
                    delta = growth(net.stats, before)
                    load = delta["node_load"]
                    assert set(load) == expected[0]
                    # One load per delivered occurrence, repeats included.
                    assert sum(load.values()) == delta["delivered"].get(POST, 0), (
                        trial, mode
                    )
            if live:
                source = rng.choice(live)
                expected = oracle.flood(nodes, survivors, source)
                before = net.stats.snapshot()
                assert _as_tuple(net.broadcast(source, QUERY)) == expected, trial
                delta = _ledger_delta(net.stats, before, QUERY)
                assert (delta["hops"], delta["messages"]) == (expected[1], 1)

    def test_repeats_are_charged_per_occurrence(self, grid_network):
        net = grid_network
        net.crash_node((2, 2))
        repeated = [(4, 4), (4, 4), (2, 2), (2, 2), (0, 1)]
        for mode, hops in (("ideal", 3), ("unicast", 8 + 8 + 1), ("multicast", 8)):
            outcome = net.deliver((0, 0), repeated, POST, mode=mode)
            assert outcome.hops == hops, mode
            assert outcome.unreachable == {(2, 2)}
        assert net.stats.messages[POST] == 15
        assert net.stats.dropped[POST] == 6

    def test_a_crashed_ideal_target_is_not_reached(self, grid_network):
        net = grid_network
        net.crash_node((3, 3))
        outcome = net.deliver((0, 0), frozenset({(3, 3), (1, 1)}), POST, "ideal")
        assert _as_tuple(outcome) == (frozenset({(1, 1)}), 1, frozenset({(3, 3)}))

    def test_multicast_pays_each_shared_tree_edge_once(self):
        """Down a line every target shares the path of the farthest one:
        multicast pays its length, unicast the sum."""
        net = Network(Graph(edges=[(i, i + 1) for i in range(4)]), "multicast")
        assert net.deliver(0, frozenset({1, 2, 3, 4}), POST).hops == 4
        assert net.deliver(0, frozenset({1, 2, 3, 4}), POST, "unicast").hops == 10

    def test_a_flood_costs_one_hop_less_than_it_reaches(self, grid_network):
        net = grid_network
        net.crash_node((0, 1))
        net.crash_node((1, 0))  # (0, 0) is cut off from the rest
        outcome = net.broadcast((2, 2), QUERY)
        assert len(outcome.reached) == 22 and outcome.hops == 21
        assert outcome.unreachable == {(0, 1), (1, 0), (0, 0)}
        assert net.broadcast((0, 0), QUERY).hops == 0
        assert net.stats.hops[QUERY] == 21


def test_a_thousand_message_faulted_stream_matches_the_oracle():
    """A matchmaker-shaped unicast stream on ``manhattan:8`` with two nodes
    crashed: 8 servers post their P sets, clients query their Q sets.  The
    planner charges every message what the oracle does, serves the stream
    from its caches and builds one surviving table for the revision."""
    topology = ManhattanTopology.square(8)
    strategy = ManhattanStrategy(topology)
    nodes = sorted(topology.nodes())
    rng = random.Random(16)
    servers = rng.sample(nodes, 8)
    network = Network(topology.graph, delivery_mode="unicast")
    for node in ((3, 3), (6, 1)):
        network.crash_node(node)
    survivors = _survivors(network)
    planned = expected = messages = 0
    for i in range(1_000):
        if i % 8 == 0:
            source = servers[(i // 8) % len(servers)]
            targets = strategy.post_set(source)
        else:
            source = nodes[rng.randrange(len(nodes))]
            targets = strategy.query_set(source)
        if not network.node_is_up(source):
            continue
        messages += 1
        planned += network.deliver(source, targets, POST).hops
        expected += oracle.price(survivors, source, targets, "unicast")[1]
    assert messages >= 900
    assert planned == expected
    events = network.stats.plan_events
    assert events[PLAN_HIT] > 10 * events[PLAN_MISS]
    assert events.get(ROUTE_MISS, 0) <= 1
