"""FifoResource: waits, capacity, timeout drops, depth, pruning and tallies.

The resource is the congestion mechanism — a lazy capacity-server FIFO
queue whose admission order is kernel event order.  These tests walk the
service-window arithmetic directly, without a kernel, read what the
station counted about each visit, and then drive the flat ``acquire``
against the helper-composed admission it replaced.  Time is integer
nanoseconds; ``S`` is one virtual second of them.
"""

import heapq
import random
from bisect import bisect_left

import pytest

from repro.simtime import FifoResource
from repro.simtime.queueing import LATENCY_BUCKETS_US

#: Nanoseconds per virtual second.
S = 1_000_000_000
#: Telemetry windows of one virtual second.
WIDTH_US = 1_000_000


def to_us(ns):
    """Nanoseconds as microseconds, half a microsecond rounding up."""
    whole, rest = divmod(ns, 1000)
    return whole + (rest >= 500)


def station(capacity=1, link=False):
    return FifoResource(capacity, WIDTH_US, link=link)


def depths_seen(resource):
    """Every depth the station counted, one entry per visit, ascending."""
    return [depth for depth, count in enumerate(resource.depths)
            for _ in range(count)]


def admit(resource, *call):
    """``acquire``, plus the visit's depth read back from the tallies."""
    before = list(resource.depths)
    window = resource.acquire(*call)
    after = resource.depths
    (depth,) = [d for d in range(len(after))
                if after[d] != (before[d] if d < len(before) else 0)]
    return window, depth


class TestAcquire:
    def test_idle_server_starts_immediately(self):
        resource = station()
        assert resource.acquire(now=S, hold=S // 2) == (S, 3 * S // 2)
        assert resource.waits[0] == 1 and resource.wait_us == 0
        assert resource.depths == [1]

    def test_busy_server_imposes_fifo_wait(self):
        resource = station()
        resource.acquire(now=0, hold=S)
        assert resource.acquire(now=S // 5, hold=S) == (S, 2 * S)
        assert resource.wait_us == 800_000
        # 0.8 s falls in the (500 ms, 1 s] bucket.
        assert resource.waits[LATENCY_BUCKETS_US.index(1_000_000)] == 1

    def test_waits_accumulate_down_the_queue(self):
        resource = station()
        starts = [resource.acquire(now=0, hold=S)[0] for _ in range(4)]
        assert starts == [0, S, 2 * S, 3 * S]
        assert resource.wait_us == 6_000_000
        assert sum(resource.waits) == 4

    def test_extra_capacity_absorbs_simultaneous_arrivals(self):
        resource = station(capacity=2)
        starts = [resource.acquire(now=0, hold=S)[0] for _ in range(3)]
        assert starts == [0, 0, S]  # only the third waits
        assert resource.waits[0] == 2

    def test_late_arrival_after_drain_starts_immediately(self):
        resource = station()
        resource.acquire(now=0, hold=S)
        assert resource.acquire(now=5 * S, hold=S) == (5 * S, 6 * S)
        assert resource.wait_us == 0

    def test_rejects_negative_hold(self):
        with pytest.raises(ValueError):
            station().acquire(now=0, hold=-S // 10)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FifoResource(0, WIDTH_US)

    @pytest.mark.parametrize("width_us", [0, -5])
    def test_rejects_a_window_narrower_than_a_microsecond(self, width_us):
        # Width 0 would divide by zero at the first acquire, and window
        # index -1 of a negative width would alias the "no window yet"
        # sentinel: the station refuses both where it is built.
        with pytest.raises(ValueError, match="at least 1 microsecond"):
            FifoResource(1, width_us)


class TestGapScheduling:
    def test_earlier_arrival_fills_the_gap_before_a_later_one(self):
        # Admission order is not arrival order: a message admitted later
        # but arriving earlier must not wait behind one that hasn't
        # arrived yet — it claims the idle gap.
        resource = station()
        resource.acquire(now=5 * S, hold=S)  # busy [5, 6] s
        assert resource.acquire(now=S, hold=S) == (S, 2 * S)
        assert resource.wait_us == 0

    def test_gap_too_small_pushes_past_the_block(self):
        resource = station()
        resource.acquire(now=S, hold=S)  # busy [1, 2] s
        resource.acquire(now=5 * S // 2, hold=S)  # busy [2.5, 3.5] s
        # A 1s hold arriving at 0 fits before the first block...
        assert resource.acquire(now=0, hold=S)[0] == 0
        # ...but another does not (gap [2, 2.5] is too small): it lands
        # after the last block, and the wait is genuine backlog.
        assert resource.acquire(now=0, hold=S)[0] == 7 * S // 2
        assert resource.wait_us == 3_500_000

    def test_adjacent_intervals_consolidate(self):
        # A saturated server is one solid block: back-to-back admissions
        # merge, so the timeline stays short under overload.
        resource = station()
        for _ in range(50):
            resource.acquire(now=0, hold=S)
        assert resource._timelines[0] == [[0, 50 * S]]

    def test_prune_drops_only_dead_intervals(self):
        resource = station()
        resource.acquire(now=0, hold=S)   # [0, 1] s — prunable
        resource.acquire(now=5 * S, hold=S)   # [5, 6] s — alive
        # The reclaimed region is genuinely gone: an arrival inside it
        # starts immediately.
        start, _ = resource.acquire(now=2 * S, hold=S, watermark=2 * S)
        assert start == 2 * S
        assert resource._timelines[0] == [[2 * S, 3 * S], [5 * S, 6 * S]]
        # A repeated watermark finds nothing new, and an interval ending
        # exactly on it is dead too.
        resource.acquire(now=9 * S, hold=0, watermark=2 * S)
        assert resource._timelines[0] == [[2 * S, 3 * S], [5 * S, 6 * S]]
        resource.acquire(now=9 * S, hold=0, watermark=3 * S)
        assert resource._timelines[0] == [[5 * S, 6 * S]]

    def test_every_server_is_pruned_not_only_the_one_that_serves(self):
        resource = station(capacity=2)
        resource.acquire(now=0, hold=S)
        resource.acquire(now=0, hold=2 * S)
        resource.acquire(now=4 * S, hold=S, watermark=3 * S)
        assert resource._timelines == [[[4 * S, 5 * S]], []]

    def test_acquire_watermark_prunes(self):
        resource = station()
        resource.acquire(now=0, hold=S)
        resource.acquire(now=3 * S, hold=S, watermark=2 * S)
        assert resource._timelines[0] == [[3 * S, 4 * S]]

    def test_zero_hold_occupies_nothing(self):
        resource = station()
        resource.acquire(now=S, hold=0)
        assert resource._timelines[0] == []
        assert resource.acquire(now=S, hold=S)[0] == S


class TestTimeoutDrops:
    def test_wait_beyond_timeout_drops(self):
        resource = station()
        resource.acquire(now=0, hold=2 * S)
        assert resource.acquire(now=0, hold=S, timeout=S // 2) is None
        # The drop is counted in its window with the wait it refused.
        assert resource.windows == {0: [1, 1, 1]}
        assert resource.wait_us == 2_000_000

    def test_dropped_message_leaves_queue_untouched(self):
        resource = station()
        resource.acquire(now=0, hold=2 * S)
        resource.acquire(now=0, hold=S, timeout=S // 2)  # dropped
        # The next message waits only for the original holder, not for the
        # dropped one.
        assert resource.acquire(now=0, hold=S) == (2 * S, 3 * S)

    def test_zero_timeout_never_drops(self):
        resource = station()
        resource.acquire(now=0, hold=10 * S)
        assert resource.acquire(now=0, hold=S, timeout=0) is not None

    def test_wait_equal_to_timeout_is_admitted(self):
        resource = station()
        resource.acquire(now=0, hold=S)
        assert resource.acquire(now=0, hold=S, timeout=S) is not None


class TestDepth:
    def test_depth_counts_in_flight_messages(self):
        def depth_seen_at(now):
            resource = station()
            resource.acquire(now=0, hold=S)  # completes at 1 s
            resource.acquire(now=0, hold=S)  # completes at 2 s
            return admit(resource, now, S)[1]

        assert [depth_seen_at(now) for now in (S // 2, 3 * S // 2, 5 * S // 2)] \
            == [2, 1, 0]

    def test_acquire_hands_back_the_depth_seen_on_arrival(self):
        # The depth a message saw is the messages in flight at ``now``
        # *before* its own admission — for admitted and dropped alike.
        resource = station()
        assert [admit(resource, 0, S)[1] for _ in range(3)] == [0, 1, 2]
        assert admit(resource, S // 2, S, S // 10) == (None, 3)
        assert admit(resource, 3 * S // 2, S)[1] == 2  # ends 2 s, 3 s
        assert depths_seen(resource) == [0, 1, 2, 2, 3]

    def test_admissions_drops_and_busy_time_are_what_the_station_counts(self):
        link = station(link=True)
        assert link.acquire(now=0, hold=2 * S) == (0, 2 * S)
        assert link.acquire(now=0, hold=3 * S // 2) == (2 * S, 7 * S // 2)
        assert link.acquire(now=0, hold=S, timeout=S // 10) is None
        # Two admissions, one drop, 3.5 busy seconds, nothing left by the
        # drop; waits 0, 2 and the refused 3.5 seconds.
        assert link.windows == {0: [2, 1, 2]}
        assert link.busy_us == 3_500_000
        assert link._timelines == [[[0, 7 * S // 2]]]
        assert link.wait_us == 5_500_000 and sum(link.waits) == 3
        assert depths_seen(link) == [0, 1, 2]

    def test_a_node_station_counts_no_busy_time(self):
        node = station()
        node.acquire(now=0, hold=2 * S)
        assert node.busy_us == 0 and node.windows == {0: [1, 0, 0]}

    def test_a_drained_queue_reports_depth_zero_again(self):
        resource = station()
        assert [admit(resource, 0, S)[1] for _ in range(3)] == [0, 1, 2]
        assert admit(resource, 10 * S, S)[1] == 0


class TestWindows:
    def test_a_visit_lands_in_the_window_of_its_rounded_microsecond(self):
        # Arrivals hugging window edges (within a microsecond, on both
        # sides, out of order) land in the window of their microsecond,
        # half a microsecond rounding up.
        rng = random.Random(3)
        resource, expected = FifoResource(1, 1000), {}
        for _ in range(2000):
            edge = rng.randrange(1, 6) * 1_000_000
            now = edge + rng.choice((-600, -501, -500, -499, -400, 0, 400,
                                     499, 500, 600, -400_000, 300_000))
            resource.acquire(now, 0)
            index = to_us(now) // 1000
            expected[index] = expected.get(index, 0) + 1
        assert {i: w[0] for i, w in resource.windows.items()} == expected


class TestTalliesAreCounts:
    @staticmethod
    def drive(resource, rounds):
        """``rounds`` repetitions of one pattern spread over the same two
        seconds: a burst of three at one instant (depths 0, 1, 2, waits 0,
        0.5 and a refused 1 ms), then an arrival at the drained queue."""
        for index in range(rounds):
            now = 2 * S * index // rounds
            for _ in range(3):
                resource.acquire(now, 500_000, 700_000)
            resource.acquire(now + 2_000_000, 500_000, 700_000)

    def test_ten_times_the_visits_keep_the_same_size(self):
        small, large = station(link=True), station(link=True)
        self.drive(small, 50)
        self.drive(large, 500)

        def shape(resource):
            return (len(resource.waits), len(resource.depths),
                    sorted(resource.windows),
                    [len(w) for w in resource.windows.values()])

        assert shape(large) == shape(small)
        assert sum(large.waits) == 10 * sum(small.waits) == 10 * 200
        assert large.windows[0][1] == 10 * small.windows[0][1] > 0


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

    def acquire(self, now, hold, timeout=0, watermark=0):
        if hold < 0:
            raise ValueError("hold must be non-negative")
        if watermark > 0:
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
        if timeout > 0 and wait > timeout:
            return now, now, wait, True, depth
        end = start + hold
        if hold > 0:
            self._insert(self._timelines[best_server], start, end)
        heapq.heappush(self._in_flight, end)
        return start, end, wait, False, depth


def expected_tallies(visits, link=False):
    """What a station should have counted over ``visits``: ``(now, hold,
    wait, dropped, depth)`` as the helper-composed admission saw them."""
    resource = station(link=link)
    waits = [0] * len(resource.waits)
    depths = [0] * (1 + max((visit[4] for visit in visits), default=-1))
    windows, wait_us, busy_us = {}, 0, 0
    for now, hold, wait, dropped, depth in visits:
        wait_us += to_us(wait)
        waits[bisect_left(LATENCY_BUCKETS_US, to_us(wait))] += 1
        depths[depth] += 1
        window = windows.setdefault(to_us(now) // WIDTH_US, [0, 0, 0])
        window[1 if dropped else 0] += 1
        window[2] = max(window[2], depth)
        if not dropped and link:
            busy_us += to_us(hold)
    return waits, wait_us, depths, windows, busy_us


def tallies(resource):
    return (resource.waits, resource.wait_us, resource.depths,
            resource.windows, resource.busy_us)


#: A quarter of a virtual second.
Q = S // 4


class TestFlatAcquireAgainstTheHelpers:
    """Seeded random streams the goldens only sample.  Times, holds and
    timeouts live on a quarter-second grid (``Q`` ns), so exact adjacency (merges on
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
        link = seed % 2 == 0
        flat = FifoResource(capacity, WIDTH_US, link=link)
        reference = HelperComposedFifo(capacity)
        horizon = rng.choice((6, 12, 40))  # crowded .. sparse
        watermark = 0
        seen, visits = set(), []
        for _ in range(400):
            now = rng.randrange(4 * horizon) * Q  # non-monotone
            hold = rng.choice((0, Q, Q, 2 * Q, 4 * Q, 10 * Q))
            timeout = rng.choice((0, 0, Q, 2 * Q, 4 * Q))
            if rng.random() < 0.3:  # the watermark moves, both ways
                watermark = rng.choice((0, now, now - S, watermark + 2 * Q))
            call = (now, hold, timeout, watermark)
            if watermark > 0:
                blocks = sum(map(len, reference._timelines))
                reference.prune(watermark)  # as its acquire is about to
                if sum(map(len, reference._timelines)) < blocks:
                    seen.add("pruned")
            blocks = sum(map(len, reference._timelines))
            tail = max(
                (line[-1][0] for line in reference._timelines if line),
                default=-1,
            )
            got = flat.acquire(*call)
            start, end, wait, dropped, depth = reference.acquire(*call)
            visits.append((now, hold, wait, dropped, depth))
            context = (seed, capacity, call)
            assert got == (None if dropped else (start, end)), context
            assert flat._timelines == reference._timelines, context
            grown = sum(map(len, reference._timelines)) - blocks
            if dropped:
                seen.add("dropped")
            elif hold == 0:
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
        assert tallies(flat) == expected_tallies(visits, link), (seed, capacity)
        return seen

    def test_monotone_arrivals_under_a_trailing_watermark(self):
        # The overlay's shape: arrivals mostly advance, the watermark is
        # the current request's arrival, holds carry jitter.
        rng = random.Random(7)
        flat = FifoResource(1, WIDTH_US, link=True)
        reference = HelperComposedFifo()
        clock, visits = 0, []
        for _ in range(1500):
            clock += rng.choice((0, 0, 400_000, 3_000_000))
            call = (clock + int(rng.random() * 4_000_000),
                    800_000 + int(rng.random() * 100_000),
                    rng.choice((0, 2_000_000)), clock)
            start, end, wait, dropped, depth = reference.acquire(*call)
            visits.append((call[0], call[1], wait, dropped, depth))
            assert flat.acquire(*call) == (None if dropped else (start, end))
            assert flat._timelines == reference._timelines
        assert tallies(flat) == expected_tallies(visits, link=True)
