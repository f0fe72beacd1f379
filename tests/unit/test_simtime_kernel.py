"""The discrete-event kernel: ordering, tie-breaking, validation.

The kernel is the determinism anchor of ``repro.simtime`` — every other
simtime guarantee (byte-identical replays, worker-count invariance) leans
on events firing in exact ``(time, seq)`` order, so that contract is
pinned here event by event.  Events are data — ``schedule(at, message,
hop)`` — and ``run(handler)`` hands each one to the single handler.
"""

import pytest

from repro.simtime import SimKernel


def ignore(at, message, hop):
    pass


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "at", [-0.1, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_negative_nan_and_infinite_times(self, at):
        kernel = SimKernel()
        with pytest.raises(ValueError):
            kernel.schedule(at, "message")
        fired = []
        kernel.run(lambda *event: fired.append(event))
        assert fired == []

    def test_zero_is_a_valid_time(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule(0.0, "message")
        assert kernel.run(lambda *event: fired.append(event)) == 0.0
        assert fired == [(0.0, "message", 0)]


class TestOrdering:
    def test_events_fire_in_time_order(self):
        kernel = SimKernel()
        order = []
        for at in (3.0, 1.0, 2.0):
            kernel.schedule(at, "message")
        assert kernel.run(lambda at, message, hop: order.append(at)) == 3.0
        assert order == [1.0, 2.0, 3.0]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        kernel = SimKernel()
        order = []
        for name in ("first", "second", "third"):
            kernel.schedule(1.0, name)
        kernel.run(lambda at, message, hop: order.append(message))
        assert order == ["first", "second", "third"]

    def test_the_heap_never_compares_messages(self):
        # Uncomparable payloads at one instant: (time, seq) alone orders.
        kernel = SimKernel()
        payloads = [{"a": 1}, object(), ["list"], None]
        for payload in payloads:
            kernel.schedule(2.0, payload, hop=7)
        seen = []
        kernel.run(lambda at, message, hop: seen.append((message, hop)))
        assert seen == [(payload, 7) for payload in payloads]

    def test_the_handler_may_schedule_more_events(self):
        kernel = SimKernel()
        order = []

        def chain(at, message, hop):
            order.append((at, hop))
            if at < 3.0:
                kernel.schedule(at + 1.0, message, hop + 1)

        kernel.schedule(1.0, "message")
        assert kernel.run(chain) == 3.0
        assert order == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_nested_events_interleave_with_pending_ones(self):
        kernel = SimKernel()
        order = []

        def handler(at, message, hop):
            order.append((at, message))
            if message == "parent":
                kernel.schedule(1.5, "child")

        kernel.schedule(1.0, "parent")
        kernel.schedule(2.0, "bystander")
        kernel.run(handler)
        assert order == [(1.0, "parent"), (1.5, "child"), (2.0, "bystander")]


class TestClock:
    def test_now_starts_at_zero(self):
        assert SimKernel().run(ignore) == 0

    def test_now_never_moves_backward(self):
        # An event may be scheduled before `now` (late-scheduled but
        # early-arriving); it fires with its own time and the clock holds
        # rather than rewinding.
        kernel = SimKernel()
        seen = []

        def handler(at, message, hop):
            seen.append(at)
            if message == "late":
                kernel.schedule(2.0, "early")

        kernel.schedule(5.0, "late")
        assert kernel.run(handler) == 5.0
        assert seen == [5.0, 2.0]

    def test_run_accumulates_across_batches(self):
        kernel = SimKernel()
        kernel.schedule(1.0, "message")
        assert kernel.run(ignore) == 1.0
        kernel.schedule(4.0, "message")
        assert kernel.run(ignore) == 4.0

    def test_run_drains_what_is_pending(self):
        kernel = SimKernel()
        kernel.schedule(1.0, "message")
        kernel.schedule(2.0, "message")
        fired = []
        kernel.run(lambda *event: fired.append(event))
        assert len(fired) == 2
        kernel.run(lambda *event: fired.append(event))
        assert len(fired) == 2
