"""Unit tests for MessageStats and EventLoop."""

import pytest

from repro.network.events import EventLoop
from repro.network.stats import POST, QUERY, REPLY, MessageStats


class TestMessageStats:
    def test_record_and_totals(self):
        stats = MessageStats()
        stats.record(POST, 5)
        stats.record(QUERY, 3, message_count=2)
        assert stats.total_hops == 8
        assert stats.total_messages == 3
        assert stats.hops_for(POST) == 5
        assert stats.messages_for(QUERY) == 2

    def test_match_making_hops_excludes_replies(self):
        stats = MessageStats()
        stats.record(POST, 4)
        stats.record(QUERY, 6)
        stats.record(REPLY, 2)
        assert stats.match_making_hops == 10
        assert stats.total_hops == 12

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().record(POST, -1)

    def test_record_derives_dropped_from_delivered(self):
        stats = MessageStats()
        stats.record(QUERY, 7, message_count=5, delivered=3)
        stats.record(REPLY, 2, message_count=2, delivered=2)
        stats.record(POST, 0, message_count=1, delivered=0)
        assert (stats.delivered_for(QUERY), stats.dropped_for(QUERY)) == (3, 2)
        # Only non-zero outcomes create keys (dumps stay minimal).
        assert stats.delivered == {QUERY: 3, REPLY: 2}
        assert stats.dropped == {QUERY: 2, POST: 1}
        assert stats.conservation_violations((POST, QUERY, REPLY)) == {}
        # Flood-style traffic leaves ``delivered`` out: hops and messages only.
        stats.record("control", 9)
        assert "control" not in stats.delivered
        assert "control" not in stats.dropped

    @pytest.mark.parametrize("delivered", [-1, 3])
    def test_record_rejects_impossible_delivery_counts(self, delivered):
        with pytest.raises(ValueError):
            MessageStats().record(QUERY, 1, message_count=2, delivered=delivered)

    @pytest.mark.parametrize(
        "arguments",
        [
            dict(hop_count=3, message_count=2, delivered=5),
            dict(hop_count=3, message_count=2, delivered=-1),
            dict(hop_count=-1, message_count=2, delivered=1),
            dict(hop_count=3, message_count=-2),
        ],
    )
    def test_rejected_record_charges_nothing(self, arguments):
        # All-or-nothing: a call that raises leaves every family empty
        # (it used to charge hops and messages before checking delivered).
        stats = MessageStats()
        with pytest.raises(ValueError):
            stats.record(QUERY, **arguments)
        assert stats == MessageStats()
        for family in ("hops", "messages", "node_load", "plan_events",
                       "delivered", "dropped"):
            assert getattr(stats, family) == {}
        assert stats.conservation_violations((QUERY,)) == {}

    def test_restore_rewinds_all_six_families(self):
        stats = MessageStats()
        stats.record(POST, 2, message_count=2, delivered=1)
        stats.record_load([1, 2])
        stats.record_plan_event("plan_miss")
        snap = stats.snapshot()
        stats.record(POST, 3, message_count=4, delivered=1)
        stats.record(QUERY, 1, message_count=1, delivered=1)
        stats.record_load([2, 3])
        stats.record_plan_event("plan_hit")
        hops = stats.hops
        stats.restore(snap)
        assert stats == snap
        assert stats.hops is hops  # in place: the planner keeps its handle
        stats.record(POST, 1)
        assert snap.hops_for(POST) == 2  # the snapshot stays independent

    def test_merge(self):
        a = MessageStats()
        a.record(POST, 2)
        b = MessageStats()
        b.record(POST, 3)
        b.record(QUERY, 1)
        a.merge(b)
        assert a.hops_for(POST) == 5
        assert a.hops_for(QUERY) == 1

    def test_snapshot_and_diff(self):
        stats = MessageStats()
        stats.record(POST, 2)
        snap = stats.snapshot()
        stats.record(POST, 3)
        stats.record(QUERY, 1)
        delta = stats.diff(snap)
        assert delta.hops_for(POST) == 3
        assert delta.hops_for(QUERY) == 1
        # Snapshot itself is unchanged by later recording.
        assert snap.hops_for(POST) == 2

    def test_reset(self):
        stats = MessageStats()
        stats.record(POST, 5)
        stats.reset()
        assert stats.total_hops == 0

    def test_unknown_category_zero(self):
        assert MessageStats().hops_for("nonexistent") == 0


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(5, lambda: order.append("b"))
        loop.schedule_at(2, lambda: order.append("a"))
        loop.run_until_idle()
        assert order == ["a", "b"]
        assert loop.now == 5

    def test_same_time_fifo(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(1, lambda: order.append(1))
        loop.schedule_at(1, lambda: order.append(2))
        loop.run_until_idle()
        assert order == [1, 2]

    def test_schedule_after(self):
        loop = EventLoop()
        fired = []
        loop.schedule_after(3, lambda: fired.append(loop.now))
        loop.run_until(10)
        assert fired == [3]

    def test_run_until_respects_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(2, lambda: fired.append(2))
        loop.schedule_at(8, lambda: fired.append(8))
        executed = loop.run_until(5)
        assert executed == 1
        assert fired == [2]
        assert loop.now == 5
        assert loop.pending == 1

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule_at(5, lambda: None)
        loop.run_until(5)
        with pytest.raises(ValueError):
            loop.schedule_at(3, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_after(-1, lambda: None)

    def test_step_on_idle_loop(self):
        assert EventLoop().step() is False

    def test_advance(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(4, lambda: fired.append(True))
        loop.advance(10)
        assert fired == [True]
        assert loop.now == 10

    def test_self_rescheduling_event_bounded(self):
        loop = EventLoop()

        def tick():
            loop.schedule_after(1, tick)

        loop.schedule_at(0, tick)
        executed = loop.run_until(5, max_events=3)
        assert executed == 3

    def test_processed_counter(self):
        loop = EventLoop()
        loop.schedule_at(1, lambda: None)
        loop.schedule_at(2, lambda: None)
        loop.run_until_idle()
        assert loop.processed == 2
