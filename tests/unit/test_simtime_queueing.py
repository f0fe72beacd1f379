"""FifoResource: waits, capacity, timeout drops, depth and stats.

The resource is the congestion mechanism — a lazy capacity-server FIFO
queue whose admission order is kernel event order.  These tests walk the
service-window arithmetic directly, without a kernel.
"""

import pytest

from repro.simtime import FifoResource, QueueStats


class TestAcquire:
    def test_idle_server_starts_immediately(self):
        resource = FifoResource()
        start, end, wait, dropped, depth = resource.acquire(now=1.0, hold=0.5)
        assert (start, end, wait, dropped, depth) == (1.0, 1.5, 0.0, False, 0)

    def test_busy_server_imposes_fifo_wait(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=1.0)
        start, end, wait, dropped, _ = resource.acquire(now=0.2, hold=1.0)
        assert start == 1.0
        assert end == 2.0
        assert wait == pytest.approx(0.8)
        assert not dropped

    def test_waits_accumulate_down_the_queue(self):
        resource = FifoResource()
        waits = [resource.acquire(now=0.0, hold=1.0)[2] for _ in range(4)]
        assert waits == [0.0, 1.0, 2.0, 3.0]

    def test_extra_capacity_absorbs_simultaneous_arrivals(self):
        resource = FifoResource(capacity=2)
        first = resource.acquire(now=0.0, hold=1.0)
        second = resource.acquire(now=0.0, hold=1.0)
        third = resource.acquire(now=0.0, hold=1.0)
        assert first[2] == 0.0
        assert second[2] == 0.0
        assert third[2] == 1.0  # only the third waits

    def test_late_arrival_after_drain_starts_immediately(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=1.0)
        start, _, wait, _, _ = resource.acquire(now=5.0, hold=1.0)
        assert start == 5.0
        assert wait == 0.0

    def test_rejects_negative_hold(self):
        with pytest.raises(ValueError):
            FifoResource().acquire(now=0.0, hold=-0.1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FifoResource(capacity=0)


class TestGapScheduling:
    def test_earlier_arrival_fills_the_gap_before_a_later_one(self):
        # Admission order is not arrival order: a message admitted later
        # but arriving earlier must not wait behind one that hasn't
        # arrived yet — it claims the idle gap.
        resource = FifoResource()
        resource.acquire(now=5.0, hold=1.0)  # busy [5, 6]
        start, end, wait, dropped, _ = resource.acquire(now=1.0, hold=1.0)
        assert (start, end, wait, dropped) == (1.0, 2.0, 0.0, False)

    def test_gap_too_small_pushes_past_the_block(self):
        resource = FifoResource()
        resource.acquire(now=1.0, hold=1.0)  # busy [1, 2]
        resource.acquire(now=2.5, hold=1.0)  # busy [2.5, 3.5]
        # A 1s hold arriving at 0.0 fits before the first block...
        first = resource.acquire(now=0.0, hold=1.0)
        assert first[0] == 0.0
        # ...but another does not (gap [2, 2.5] is too small): it lands
        # after the last block.
        second = resource.acquire(now=0.0, hold=1.0)
        assert second[0] == 3.5
        assert second[2] == 3.5  # the wait is genuine backlog

    def test_adjacent_intervals_consolidate(self):
        # A saturated server is one solid block: back-to-back admissions
        # merge, so the timeline stays short under overload.
        resource = FifoResource()
        for _ in range(50):
            resource.acquire(now=0.0, hold=1.0)
        assert resource._timelines[0] == [[0.0, 50.0]]

    def test_prune_drops_only_dead_intervals(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=1.0)   # [0, 1] — prunable
        resource.acquire(now=5.0, hold=1.0)   # [5, 6] — alive
        resource.prune(2.0)
        assert resource._timelines[0] == [[5.0, 6.0]]
        # The reclaimed region is genuinely gone: an arrival inside it
        # starts immediately.
        start, *_ = resource.acquire(now=2.0, hold=1.0)
        assert start == 2.0

    def test_acquire_watermark_prunes(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=1.0)
        resource.acquire(now=3.0, hold=1.0, watermark=2.0)
        assert resource._timelines[0] == [[3.0, 4.0]]

    def test_zero_hold_occupies_nothing(self):
        resource = FifoResource()
        resource.acquire(now=1.0, hold=0.0)
        assert resource._timelines[0] == []
        start, *_ = resource.acquire(now=1.0, hold=1.0)
        assert start == 1.0


class TestTimeoutDrops:
    def test_wait_beyond_timeout_drops(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=2.0)
        start, end, wait, dropped, _ = resource.acquire(
            now=0.0, hold=1.0, timeout=0.5
        )
        assert dropped
        assert wait == 2.0
        assert start == end == 0.0  # never got a server

    def test_dropped_message_leaves_queue_untouched(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=2.0)
        resource.acquire(now=0.0, hold=1.0, timeout=0.5)  # dropped
        # The next message waits only for the original holder, not for the
        # dropped one.
        _, _, wait, dropped, _ = resource.acquire(now=0.0, hold=1.0)
        assert not dropped
        assert wait == 2.0

    def test_zero_timeout_never_drops(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=10.0)
        *_, dropped, _ = resource.acquire(now=0.0, hold=1.0, timeout=0.0)
        assert not dropped

    def test_wait_equal_to_timeout_is_admitted(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=1.0)
        *_, dropped, _ = resource.acquire(now=0.0, hold=1.0, timeout=1.0)
        assert not dropped


class TestDepthAndStats:
    def test_depth_counts_in_flight_messages(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=1.0)  # completes at 1.0
        resource.acquire(now=0.0, hold=1.0)  # completes at 2.0
        assert resource.depth(0.5) == 2
        assert resource.depth(1.5) == 1
        assert resource.depth(2.5) == 0

    def test_acquire_hands_back_the_depth_seen_on_arrival(self):
        # The depth a message saw is depth(now) *before* its own admission
        # — for admitted and dropped messages alike.
        resource = FifoResource()
        depths = [resource.acquire(now=0.0, hold=1.0)[4] for _ in range(3)]
        assert depths == [0, 1, 2]
        *_, dropped, depth = resource.acquire(now=0.5, hold=1.0, timeout=0.1)
        assert dropped and depth == 3
        assert resource.acquire(now=1.5, hold=1.0)[4] == resource.depth(1.5) - 1

    def test_stats_record_admissions_drops_and_busy_time(self):
        resource = FifoResource()
        resource.acquire(now=0.0, hold=2.0)
        resource.acquire(now=0.0, hold=1.5)
        resource.acquire(now=0.0, hold=1.0, timeout=0.1)  # dropped
        stats = resource.stats()
        assert stats == QueueStats(
            admitted=2, dropped=1, busy_seconds=3.5, peak_depth=2
        )

    def test_peak_depth_tracks_the_high_water_mark(self):
        resource = FifoResource()
        for _ in range(3):
            resource.acquire(now=0.0, hold=1.0)
        resource.acquire(now=10.0, hold=1.0)  # queue long drained
        assert resource.stats().peak_depth == 3
