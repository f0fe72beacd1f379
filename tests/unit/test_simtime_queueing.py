"""FifoResource: waits, capacity, timeout drops, depth and pruning.

The resource is the congestion mechanism — a lazy capacity-server FIFO
queue whose admission order is kernel event order.  These tests walk the
service-window arithmetic directly, without a kernel, and then drive the
flat ``acquire`` against the helper-composed admission it replaced.
"""

import heapq
import random
from bisect import bisect_left

import pytest

from repro.simtime import FifoResource


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
        # The reclaimed region is genuinely gone: an arrival inside it
        # starts immediately.
        start, *_ = resource.acquire(now=2.0, hold=1.0, watermark=2.0)
        assert start == 2.0
        assert resource._timelines[0] == [[2.0, 3.0], [5.0, 6.0]]
        # A repeated watermark finds nothing new, and an interval ending
        # exactly on it is dead too.
        resource.acquire(now=9.0, hold=0.0, watermark=2.0)
        assert resource._timelines[0] == [[2.0, 3.0], [5.0, 6.0]]
        resource.acquire(now=9.0, hold=0.0, watermark=3.0)
        assert resource._timelines[0] == [[5.0, 6.0]]

    def test_every_server_is_pruned_not_only_the_one_that_serves(self):
        resource = FifoResource(capacity=2)
        resource.acquire(now=0.0, hold=1.0)
        resource.acquire(now=0.0, hold=2.0)
        resource.acquire(now=4.0, hold=1.0, watermark=3.0)
        assert resource._timelines == [[[4.0, 5.0]], []]

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


class TestDepth:
    def test_depth_counts_in_flight_messages(self):
        def depth_seen_at(now):
            resource = FifoResource()
            resource.acquire(now=0.0, hold=1.0)  # completes at 1.0
            resource.acquire(now=0.0, hold=1.0)  # completes at 2.0
            return resource.acquire(now=now, hold=1.0)[4]

        assert [depth_seen_at(now) for now in (0.5, 1.5, 2.5)] == [2, 1, 0]

    def test_acquire_hands_back_the_depth_seen_on_arrival(self):
        # The depth a message saw is the messages in flight at ``now``
        # *before* its own admission — for admitted and dropped alike.
        resource = FifoResource()
        depths = [resource.acquire(now=0.0, hold=1.0)[4] for _ in range(3)]
        assert depths == [0, 1, 2]
        *_, dropped, depth = resource.acquire(now=0.5, hold=1.0, timeout=0.1)
        assert dropped and depth == 3
        assert resource.acquire(now=1.5, hold=1.0)[4] == 2  # ends 2.0, 3.0

    def test_admissions_drops_and_busy_time_are_what_acquire_returns(self):
        resource = FifoResource()
        assert resource.acquire(now=0.0, hold=2.0) == (0.0, 2.0, 0.0, False, 0)
        assert resource.acquire(now=0.0, hold=1.5) == (2.0, 3.5, 2.0, False, 1)
        assert resource.acquire(now=0.0, hold=1.0, timeout=0.1) == (
            0.0, 0.0, 3.5, True, 2
        )
        # Two admissions, 3.5 busy seconds, nothing left by the drop.
        assert resource._timelines == [[[0.0, 3.5]]]

    def test_a_drained_queue_reports_depth_zero_again(self):
        resource = FifoResource()
        depths = [resource.acquire(now=0.0, hold=1.0)[4] for _ in range(3)]
        assert depths == [0, 1, 2]
        assert resource.acquire(now=10.0, hold=1.0)[4] == 0


class HelperComposedFifo:
    """The admission ``FifoResource.acquire`` replaced, kept as its
    reference: four helpers — ``prune``, ``depth``, ``_earliest_start``,
    ``_insert`` — composed per message, every insert a ``bisect``."""

    def __init__(self, capacity=1):
        self._timelines = [[] for _ in range(capacity)]
        self._in_flight = []

    def depth(self, now):
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= now:
            heapq.heappop(in_flight)
        return len(in_flight)

    @staticmethod
    def _earliest_start(timeline, now, hold):
        candidate = now
        for start, end in timeline:
            if candidate + hold <= start:
                break
            if end > candidate:
                candidate = end
        return candidate

    @staticmethod
    def _insert(timeline, start, end):
        index = bisect_left(timeline, [start])
        before = timeline[index - 1] if index > 0 else None
        after = timeline[index] if index < len(timeline) else None
        if before is not None and before[1] == start:
            before[1] = end
            if after is not None and after[0] == end:
                before[1] = after[1]
                del timeline[index]
        elif after is not None and after[0] == end:
            after[0] = start
        else:
            timeline.insert(index, [start, end])

    def prune(self, watermark):
        for timeline in self._timelines:
            keep = 0
            while keep < len(timeline) and timeline[keep][1] <= watermark:
                keep += 1
            if keep:
                del timeline[:keep]

    def acquire(self, now, hold, timeout=0.0, watermark=0.0):
        if hold < 0:
            raise ValueError("hold must be non-negative")
        if watermark > 0.0:
            self.prune(watermark)
        depth = self.depth(now)
        best_server = 0
        best_start = None
        for index, timeline in enumerate(self._timelines):
            start = self._earliest_start(timeline, now, hold)
            if best_start is None or start < best_start:
                best_server = index
                best_start = start
                if start == now:
                    break
        start = best_start
        wait = start - now
        if timeout > 0.0 and wait > timeout:
            return now, now, wait, True, depth
        end = start + hold
        if hold > 0.0:
            self._insert(self._timelines[best_server], start, end)
        heapq.heappush(self._in_flight, end)
        return start, end, wait, False, depth


class TestFlatAcquireAgainstTheHelpers:
    """Seeded random streams the goldens only sample.  Times, holds and
    timeouts live on a quarter-second grid, so exact adjacency (merges on
    either side of a gap), exact ``wait == timeout`` and intervals ending
    exactly on the watermark all happen constantly."""

    def test_identical_returns_and_timelines_after_every_call(self):
        seen = set()
        for capacity in (1, 2, 3):
            for seed in range(8):
                seen |= self.drive(seed, capacity)
        # The streams really reached drops, admissions at exactly the
        # timeout, waits, immediate starts, and every shape of insert.
        assert seen == {
            "dropped", "admitted-at-the-timeout", "waited", "immediate",
            "zero-hold", "bridged-two-blocks", "extended-a-block",
            "new-block-in-a-gap", "new-block-at-the-tail", "pruned",
        }

    @staticmethod
    def drive(seed, capacity):
        rng = random.Random(f"{seed}/{capacity}")
        flat, reference = FifoResource(capacity), HelperComposedFifo(capacity)
        horizon = rng.choice((6, 12, 40))  # crowded .. sparse
        watermark = 0.0
        seen = set()
        for _ in range(400):
            now = rng.randrange(4 * horizon) / 4  # non-monotone
            hold = rng.choice((0.0, 0.25, 0.25, 0.5, 1.0, 2.5))
            timeout = rng.choice((0.0, 0.0, 0.25, 0.5, 1.0))
            if rng.random() < 0.3:  # the watermark moves, both ways
                watermark = rng.choice((0.0, now, now - 1.0, watermark + 0.5))
            call = (now, hold, timeout, watermark)
            if watermark > 0.0:
                blocks = sum(map(len, reference._timelines))
                reference.prune(watermark)  # as its acquire is about to
                if sum(map(len, reference._timelines)) < blocks:
                    seen.add("pruned")
            blocks = sum(map(len, reference._timelines))
            tail = max(
                (line[-1][0] for line in reference._timelines if line),
                default=-1.0,
            )
            got = flat.acquire(*call)
            context = (seed, capacity, call)
            assert got == reference.acquire(*call), context
            assert flat._timelines == reference._timelines, context
            start, _, wait, dropped, _ = got
            grown = sum(map(len, reference._timelines)) - blocks
            if dropped:
                seen.add("dropped")
            elif hold == 0.0:
                seen.add("zero-hold")
            elif grown < 1:
                seen.add(("extended-a-block", "bridged-two-blocks")[-grown])
            else:
                seen.add("new-block-in-a-gap" if start < tail
                         else "new-block-at-the-tail")
            if not dropped:
                seen.add("waited" if wait else "immediate")
                if wait and wait == timeout:
                    seen.add("admitted-at-the-timeout")
        return seen

    def test_monotone_arrivals_under_a_trailing_watermark(self):
        # The overlay's shape: arrivals mostly advance, the watermark is
        # the current request's arrival, holds carry jitter.
        rng = random.Random(7)
        flat, reference = FifoResource(), HelperComposedFifo()
        clock = 0.0
        for _ in range(1500):
            clock += rng.choice((0.0, 0.0, 0.0004, 0.003))
            call = (clock + rng.random() * 0.004, 0.0008 + rng.random() * 1e-4,
                    rng.choice((0.0, 0.002)), clock)
            assert flat.acquire(*call) == reference.acquire(*call)
            assert flat._timelines == reference._timelines
