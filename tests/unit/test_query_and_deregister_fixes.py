"""Regression tests for the query-path and deregistration fixes.

- ``Network.query`` reports each holder of the port among the reached
  nodes exactly once (it used to ask a responder's cache twice), and
  nobody else;
- when a responder's reply route is severed, only *that responder's*
  records are dropped — equal records held by other responders survive
  (eviction used to remove by value equality, hitting the wrong record);
- ``MatchMaker.deregister_server``/``migrate_server`` skip the unpost when
  the server's old node is down instead of raising ``NodeDownError``.
"""

from types import SimpleNamespace

import pytest

from repro.core.matchmaker import MatchMaker
from repro.core.types import Port
from repro.network.graph import complete_graph
from repro.network.simulator import Network
from repro.strategies import CheckerboardStrategy


@pytest.fixture
def port():
    return Port("fix-service")


@pytest.fixture
def net():
    return Network(complete_graph(6), delivery_mode="unicast")


class TestEachHolderAnswersOnce:
    def test_every_reached_holder_answers_exactly_once(self, net, port):
        net.post(0, port, frozenset({1, 2, 3}))
        before = net.stats.snapshot()
        outcome = net.query(5, port, frozenset({1, 2, 3}))
        assert outcome.responding_nodes == {1, 2, 3}
        # One posting, three holders: one (equal) record and one reply each.
        assert len(outcome.records) == 3 and len(set(outcome.records)) == 1
        spent = net.stats.diff(before)
        assert spent.messages["reply"] == spent.delivered["reply"] == 3
        assert outcome.reply_hops == spent.hops["reply"] == 3

    def test_reached_nodes_without_the_port_stay_silent(self, net, port):
        net.post(0, port, frozenset({1, 4}))  # 4 holds it but is not asked
        net.post(0, Port("another-service"), frozenset({2}))
        before = net.stats.snapshot()
        outcome = net.query(5, port, frozenset({1, 2, 3}))
        assert outcome.queried_nodes == {1, 2, 3}
        assert outcome.responding_nodes == {1}
        assert len(outcome.records) == 1
        assert net.stats.diff(before).messages["reply"] == 1


class TestUnreachableReplyEviction:
    def _sever_reply_from(self, net, lost_responder, monkeypatch):
        """Make replies from ``lost_responder`` undeliverable without
        touching forward delivery (simulates asymmetric loss)."""
        real = net.planner.routing_table()

        def distance_map(source):
            row = dict(real.distance_map(source))
            del row[lost_responder]
            return row

        stub = SimpleNamespace(distance_map=distance_map)
        monkeypatch.setattr(net.planner, "routing_table", lambda: stub)

    def test_equal_record_of_other_responder_survives(
        self, net, port, monkeypatch
    ):
        # One post delivers the *same* record to nodes 1 and 2.
        net.post(0, port, frozenset({1, 2}))
        self._sever_reply_from(net, 2, monkeypatch)
        outcome = net.query(5, port, frozenset({1, 2}))
        # Node 2's reply is lost, but node 1 holds an equal record and its
        # reply arrives: the match must succeed with exactly that record.
        assert outcome.responding_nodes == {1}
        assert len(outcome.records) == 1
        assert outcome.records[0].address.node == 0

    def test_the_surviving_responder_answers_with_its_freshest_record(
        self, net, port, monkeypatch
    ):
        net.post(0, port, frozenset({1, 2}))
        net.post(3, port, frozenset({1, 2}))
        self._sever_reply_from(net, 2, monkeypatch)
        outcome = net.query(5, port, frozenset({1, 2}))
        assert outcome.responding_nodes == {1}
        # Node 1 holds both servers' records and answers with the newer.
        assert [record.address.node for record in outcome.records] == [3]

    def test_reply_hops_not_charged_for_lost_responder(
        self, net, port, monkeypatch
    ):
        net.post(0, port, frozenset({1, 2}))
        self._sever_reply_from(net, 2, monkeypatch)
        before = net.stats.hops.get("reply", 0)
        net.query(5, port, frozenset({1, 2}))
        # Only node 1's reply is charged (distance 1 on a complete graph).
        assert net.stats.hops["reply"] - before == 1


class TestDeregisterDownNode:
    def test_deregister_skips_unpost_when_node_down(self, net, port):
        matchmaker = MatchMaker(net, CheckerboardStrategy(net.node_ids()))
        registration = matchmaker.register_server(0, port)
        net.crash_node(0)
        matchmaker.deregister_server(registration)  # must not raise

    def test_migrate_from_down_node_reposts_fresh(self, net, port):
        matchmaker = MatchMaker(net, CheckerboardStrategy(net.node_ids()))
        registration = matchmaker.register_server(0, port)
        net.crash_node(0)
        fresh = matchmaker.migrate_server(registration, 3)
        assert fresh.node == 3
        # The fresh posting's newer timestamp wins at shared rendezvous
        # nodes, so a locate finds the new home.
        result = matchmaker.locate(4, port)
        assert result.found
        assert result.address.node == 3

    def test_deregister_still_unposts_when_node_up(self, net, port):
        matchmaker = MatchMaker(net, CheckerboardStrategy(net.node_ids()))
        registration = matchmaker.register_server(0, port)
        matchmaker.deregister_server(registration)
        assert not matchmaker.locate(4, port).found
