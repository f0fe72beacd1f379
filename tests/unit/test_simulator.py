"""Unit tests for repro.network.simulator.Network."""

import pytest

from repro.core.exceptions import NodeDownError, UnknownNodeError
from repro.core.types import Address, Port
from repro.network.routing import RoutingTable
from repro.network.simulator import DELIVERY_MODES, Network
from repro.network.stats import PAYLOAD, POST, QUERY, REPLY
from repro.topologies import CompleteTopology, ManhattanTopology


@pytest.fixture
def complete_net(small_complete):
    return Network(small_complete.graph, delivery_mode="ideal")


@pytest.fixture
def grid_net(grid5):
    return Network(grid5.graph, delivery_mode="unicast")


class TestConstruction:
    def test_invalid_mode_rejected(self, small_complete):
        with pytest.raises(ValueError):
            Network(small_complete.graph, delivery_mode="teleport")

    def test_graph_copied_defensively(self, small_complete):
        graph = small_complete.graph.copy()
        network = Network(graph)
        graph.add_edge(0, 99)
        assert 99 not in network.graph

    def test_size_and_node_ids(self, complete_net):
        assert complete_net.size == 9
        assert complete_net.node_ids() == list(range(9))
        for ask in (complete_net.node_is_up, complete_net.crash_node,
                    complete_net.recover_node):
            with pytest.raises(UnknownNodeError):
                ask(42)

    def test_timestamps_increase(self, complete_net):
        assert complete_net.next_timestamp() < complete_net.next_timestamp()


class TestDelivery:
    def test_ideal_mode_one_hop_per_destination(self, complete_net):
        outcome = complete_net.deliver(0, [1, 2, 3], POST, mode="ideal")
        assert outcome.hops == 3
        assert complete_net.stats.hops[POST] == 3

    def test_unicast_mode_counts_routing(self, grid_net):
        outcome = grid_net.deliver((0, 0), [(0, 4), (4, 0)], POST, mode="unicast")
        assert outcome.hops == 8

    def test_multicast_mode_shares_edges(self, grid5):
        network = Network(grid5.graph, delivery_mode="multicast")
        row = [(0, c) for c in range(5)]
        outcome = network.deliver((0, 0), row, POST)
        assert outcome.hops == 4  # the row is a path of 4 edges

    def test_delivery_to_self_costs_nothing(self, complete_net):
        outcome = complete_net.deliver(4, [4], QUERY)
        assert outcome.hops == 0
        assert outcome.reached == frozenset({4})

    def test_delivery_from_down_node_raises(self, complete_net):
        complete_net.crash_node(0)
        with pytest.raises(NodeDownError):
            complete_net.deliver(0, [1], POST)

    def test_delivery_skips_crashed_destinations(self, complete_net):
        complete_net.crash_node(5)
        outcome = complete_net.deliver(0, [4, 5], POST)
        assert outcome.reached == frozenset({4})
        assert outcome.unreachable == frozenset({5})

    @pytest.mark.parametrize("mode", DELIVERY_MODES)
    @pytest.mark.parametrize(
        "destinations",
        [[77], frozenset({1, 99}), [1, 99], [1, 99, 99], [1, 1, 99]],
        ids=["alone", "frozenset", "list", "duplicated", "beside-duplicates"],
    )
    def test_unknown_destination_raises(self, ring12, mode, destinations):
        # Addressing a node outside the graph is an error in every mode,
        # never packet loss: nothing is charged, nothing counts as dropped.
        net = Network(ring12.graph, delivery_mode=mode)
        with pytest.raises(UnknownNodeError):
            net.deliver(0, destinations, POST)
        assert net.stats.messages == {}
        assert net.stats.dropped == {}
        # Under an active fault too (the surviving-table paths).
        net.fail_link(3, 4)
        with pytest.raises(UnknownNodeError):
            net.deliver(0, destinations, POST)
        assert net.stats.dropped == {}

    def test_broadcast_floods_survivors(self, complete_net):
        complete_net.crash_node(8)
        outcome = complete_net.broadcast(0, QUERY)
        assert outcome.reached == frozenset(range(8))


class TestPostAndQuery:
    def test_post_then_query_finds_address(self, complete_net, port):
        complete_net.post(2, port, targets=[4, 5])
        outcome = complete_net.query(7, port, targets=[5])
        assert outcome.found
        assert outcome.freshest().address == Address(2)
        assert outcome.reply_hops == 1

    def test_query_misses_when_sets_disjoint(self, complete_net, port):
        complete_net.post(2, port, targets=[4])
        outcome = complete_net.query(7, port, targets=[5, 6])
        assert not outcome.found

    def test_newer_post_wins_at_rendezvous(self, complete_net, port):
        complete_net.post(1, port, targets=[4], server_id="s")
        complete_net.post(2, port, targets=[4], server_id="s")
        outcome = complete_net.query(0, port, targets=[4])
        assert outcome.freshest().address == Address(2)

    def test_unpost_withdraws(self, complete_net, port):
        complete_net.post(1, port, targets=[4], server_id="s")
        complete_net.unpost(1, port, targets=[4], server_id="s")
        assert not complete_net.query(0, port, targets=[4]).found

    def test_a_holder_answers_with_its_freshest_server(self, complete_net, port):
        complete_net.post(1, port, targets=[4], server_id="a")
        complete_net.post(2, port, targets=[4], server_id="b")
        outcome = complete_net.query(0, port, targets=[4])
        # One reply per responder, carrying its newest posting (section
        # 2.1, assumption 3): the later server wins.
        assert outcome.responding_nodes == {4}
        assert [record.address for record in outcome.records] == [Address(2)]

    def test_each_responder_answers_in_repr_order(self, complete_net, port):
        complete_net.post(1, port, targets=[5], server_id="a")
        complete_net.post(2, port, targets=[4], server_id="b")
        outcome = complete_net.query(0, port, targets=[5, 4, 6])
        assert outcome.responding_nodes == {4, 5}
        assert [record.address for record in outcome.records] == [
            Address(2), Address(1)
        ]

    def test_post_to_crashed_target_not_stored(self, complete_net, port):
        complete_net.crash_node(4)
        complete_net.post(1, port, targets=[4])
        complete_net.recover_node(4)
        assert not complete_net.query(0, port, targets=[4]).found

    def test_query_on_self_node_costs_no_hops(self, complete_net, port):
        complete_net.post(1, port, targets=[3])
        before = complete_net.stats.total_hops
        outcome = complete_net.query(3, port, targets=[3])
        assert outcome.found
        assert outcome.query_hops == 0
        assert outcome.reply_hops == 0

    def test_reply_hops_use_routing_distance(self, grid_net, port):
        grid_net.post((0, 0), port, targets=[(0, 4)])
        outcome = grid_net.query((4, 4), port, targets=[(0, 4)])
        assert outcome.found
        assert outcome.reply_hops == 4  # (0,4) -> (4,4)

    def test_the_tap_gets_responders_in_repr_order(self, port):
        # TimedOverlay.on_replies prices replies in the order it is handed
        # and sorts nothing itself, so timed digests rest on this order.
        class Tap:
            def on_delivery(self, source, reached, category, mode):
                pass

            def on_replies(self, responders, client, mode):
                replies.append(list(responders))

        replies = []
        network = Network(CompleteTopology(12).graph, delivery_mode="ideal")
        network.attach_tap(Tap())
        network.post(1, port, targets=[11, 2, 10, 3])
        network.query(0, port, targets=range(12))
        assert replies == [[10, 11, 2, 3]]  # repr order, not numeric

    def test_stats_categories_separated(self, complete_net, port):
        complete_net.post(1, port, targets=[3, 4])
        complete_net.query(2, port, targets=[3])
        assert complete_net.stats.hops[POST] == 2
        assert complete_net.stats.hops[QUERY] == 1
        assert complete_net.stats.hops[REPLY] == 1


class TestOneStoreOneRow:
    """The nodes' caches are one store and a query's routing one row."""

    def test_faulted_query_builds_only_the_clients_row(
        self, grid_net, port, monkeypatch
    ):
        holders = [(0, 4), (2, 2), (4, 0)]
        grid_net.post((4, 4), port, targets=holders)
        grid_net.fail_link((0, 0), (0, 1))  # a fresh surviving table
        built = []
        real = RoutingTable._build
        monkeypatch.setattr(
            RoutingTable, "_build",
            lambda self, source: built.append(source) or real(self, source),
        )
        outcome = grid_net.query((1, 1), port, targets=holders + [(3, 3)])
        assert outcome.responding_nodes == set(holders)
        assert outcome.reply_hops == 4 + 2 + 4
        assert built == [(1, 1)]  # none per responder
        # The request and its reply both read that row, too.
        assert grid_net.send_payload((1, 1), (4, 4)) == 6
        assert grid_net.send_payload((4, 4), (1, 1)) == 6
        assert built == [(1, 1)]

    def test_a_plan_that_reaches_a_crashed_node_names_it(
        self, complete_net, port, monkeypatch
    ):
        # Plans never reach a crashed node; if one did, storing at it or
        # asking it raises, as each node's own liveness check used to.
        complete_net.post(0, port, targets=[3, 4])
        stale = complete_net.planner.plan(1, frozenset({3, 4}), "ideal")
        complete_net.crash_node(4)
        monkeypatch.setattr(
            complete_net.planner, "plan", lambda *args: stale
        )
        before = complete_net.cache_sizes()
        for operation in (
            lambda: complete_net.query(1, port, [3, 4]),
            lambda: complete_net.post(1, port, [3, 4]),
            lambda: complete_net.unpost(0, port, [3, 4]),
        ):
            with pytest.raises(NodeDownError) as caught:
                operation()
            assert caught.value.node == 4
        assert complete_net.cache_sizes() == before  # all or nothing

    def test_postings_are_readable_per_node_and_per_port(
        self, complete_net, port
    ):
        complete_net.post(1, port, targets=[3, 4], server_id="s")
        store = complete_net.postings
        assert set(store.holders(port)) == {3, 4}
        assert store.lookup(3, port).address == Address(1)
        assert store.ports(4) == [port] and store.ports(5) == []
        complete_net.unpost(1, port, targets=[3], server_id="s")
        assert set(store.holders(port)) == {4}


class TestFaultsAndPayload:
    def test_crash_loses_cache(self, complete_net, port):
        complete_net.post(1, port, targets=[4])
        complete_net.crash_node(4)
        complete_net.recover_node(4)
        assert not complete_net.query(0, port, targets=[4]).found

    def test_send_payload_counts_hops(self, grid_net):
        hops = grid_net.send_payload((0, 0), (2, 3))
        assert hops == 5
        assert grid_net.stats.hops[PAYLOAD] == 5

    def test_send_payload_to_down_node_raises(self, complete_net):
        complete_net.crash_node(3)
        with pytest.raises(NodeDownError):
            complete_net.send_payload(0, 3)

    def test_failed_link_changes_route_or_blocks(self, grid5, port):
        network = Network(grid5.graph, delivery_mode="unicast")
        # Fail one link on the shortest path; payload should still arrive via
        # a detour on a grid.
        network.fail_link((0, 0), (0, 1))
        hops = network.send_payload((0, 0), (0, 2))
        assert hops >= 2

    def test_only_the_crashed_node_is_down(self, complete_net):
        complete_net.crash_node(2)
        nodes = complete_net.node_ids()
        assert [node for node in nodes if not complete_net.node_is_up(node)] == [2]

    def test_cache_sizes_and_max(self, complete_net):
        for i in range(3):
            complete_net.post(0, Port(f"p{i}"), targets=[5])
        sizes = complete_net.cache_sizes()
        assert sizes[5] == 3
        assert complete_net.max_cache_size() == 3

    def test_reset_stats(self, complete_net, port):
        complete_net.post(0, port, targets=[1])
        complete_net.reset_stats()
        assert complete_net.stats.total_hops == 0


class TestLinkValidation:
    """``restore_link`` checks its link the way ``fail_link`` does, before
    the fault revision — which keys every planner cache — moves."""

    @pytest.fixture
    def net(self):
        return Network(ManhattanTopology.square(4).graph, delivery_mode="unicast")

    @pytest.mark.parametrize(
        "link", [((0, 0), (3, 3)), ("nope", 42)], ids=["non-edge", "unknown"]
    )
    @pytest.mark.parametrize("action", ["fail_link", "restore_link"])
    def test_a_link_that_is_not_an_edge_raises_and_moves_nothing(
        self, net, action, link
    ):
        with pytest.raises(UnknownNodeError) as raised:
            getattr(net, action)(*link)
        assert raised.value.args == UnknownNodeError(link).args
        assert net.faults.revision == net.planner.revision == 0
        assert not net.faults.failed_links

    def test_restoring_a_failed_edge_moves_the_revision(self, net):
        net.fail_link((0, 0), (0, 1))
        net.planner.routing_table()
        assert net.planner.revision == 1
        net.restore_link((0, 1), (0, 0))
        assert not net.faults.failed_links
        net.planner.routing_table()
        assert net.planner.revision == 2
