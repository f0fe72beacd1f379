"""Unit tests for MessageStats."""

import pickle

import pytest
from oracle.ledger import conservation_violations, read_ledger

from repro.network.stats import POST, QUERY, REPLY, MessageStats
from repro.obs.registry import CounterMap, Histogram

FAMILIES = ("hops", "messages", "node_load", "plan_events", "delivered", "dropped")


class TestMessageStats:
    def test_record_and_totals(self):
        stats = MessageStats()
        stats.record(POST, 5)
        stats.record(QUERY, 3, message_count=2)
        assert stats.total_hops == 8
        assert stats.hops == {POST: 5, QUERY: 3}
        assert stats.messages == {POST: 1, QUERY: 2}

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().record(POST, -1)

    def test_record_derives_dropped_from_delivered(self):
        stats = MessageStats()
        stats.record(QUERY, 7, message_count=5, delivered=3)
        stats.record(REPLY, 2, message_count=2, delivered=2)
        stats.record(POST, 0, message_count=1, delivered=0)
        # Only non-zero outcomes create keys (dumps stay minimal).
        assert stats.delivered == {QUERY: 3, REPLY: 2}
        assert stats.dropped == {QUERY: 2, POST: 1}
        assert conservation_violations(*read_ledger(stats), (POST, QUERY, REPLY)) == {}
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
        # All-or-nothing: a call that raises leaves every family as it was
        # (it used to charge hops and messages before checking delivered),
        # and inserts no label, not even one reading 0.
        stats = MessageStats()
        stats.record(POST, 2, message_count=2, delivered=1)
        stats.record_load([4])
        stats.record_plan_event("plan_miss")
        before = stats.snapshot()
        with pytest.raises(ValueError):
            stats.record(QUERY, **arguments)
        assert stats == before
        for family in FAMILIES:
            assert list(getattr(stats, family).items()) == list(
                getattr(before, family).items()
            )

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
        assert snap.hops[POST] == 2  # the snapshot stays independent

    def test_snapshot_is_independent(self):
        stats = MessageStats()
        stats.record(POST, 2)
        snap = stats.snapshot()
        stats.record(POST, 3)
        stats.record(QUERY, 1)
        assert stats.hops == {POST: 5, QUERY: 1}
        # Snapshot itself is unchanged by later recording.
        assert snap.hops == {POST: 2}

    def test_reset(self):
        stats = MessageStats()
        stats.record(POST, 5)
        stats.reset()
        assert stats.total_hops == 0


class TestZeroDefaultCounters:
    """Every family reads 0 for a label it never counted, so a tally is one
    subscript; the read itself must not insert the label."""

    def test_a_missing_label_reads_zero_and_inserts_nothing(self):
        counts = CounterMap({"post": 2})
        assert counts["query"] == 0
        assert len(counts) == 1
        assert "query" not in counts
        assert counts == {"post": 2}
        stats = MessageStats()
        stats.record(POST, 3)
        for family in FAMILIES:
            assert getattr(stats, family)["nowhere"] == 0
        assert stats.hops == {POST: 3}
        assert stats == MessageStats(hops={POST: 3}, messages={POST: 1})

    def test_labels_keep_first_count_order(self):
        # ``node_load`` order reaches exports: a later bump of an earlier
        # label must not move it.
        stats = MessageStats()
        stats.record_load([5, 2, 9])
        stats.record_load([9, 1, 5])
        assert list(stats.node_load) == [5, 2, 9, 1]
        assert stats.node_load == {5: 2, 2: 1, 9: 2, 1: 1}
        counts = CounterMap()
        for key in ("b", "a", "b", "c", "a"):
            counts.bump(key)
        counts.merge({"d": 1, "a": 1})
        assert list(counts) == ["b", "a", "c", "d"]

    def test_a_pickle_round_trip_keeps_the_class_and_the_default(self):
        stats = MessageStats()
        stats.record(QUERY, 4, message_count=2, delivered=1)
        stats.record_load([3, 1])
        copy = pickle.loads(pickle.dumps(stats))
        assert copy == stats
        for family in FAMILIES:
            assert type(getattr(copy, family)) is CounterMap
            assert getattr(copy, family)["absent"] == 0
        assert list(copy.node_load) == [3, 1]
        histogram = Histogram()
        histogram.add(2, count=3)
        restored = pickle.loads(pickle.dumps(histogram))
        restored.add(2)
        restored.add(7)
        assert restored.buckets() == [(2, 4), (7, 1)]
