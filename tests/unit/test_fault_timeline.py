"""Fault timelines: events, regime builders and network application."""

import random
from collections import Counter

import pytest

from repro.core.types import Port
from repro.network.delivery import PLAN_MISS
from repro.network.faults import (
    CRASH_NODE,
    LINK_DOWN,
    LINK_UP,
    RECOVER_NODE,
    FaultEvent,
    FaultPlan,
    FaultTimeline,
    crash_recover_waves,
    link_flaps,
)
from repro.network.simulator import Network
from repro.topologies import ManhattanTopology


@pytest.fixture
def rng():
    return random.Random(42)


@pytest.fixture
def grid():
    return ManhattanTopology.square(4).graph


def apply(network, event):
    """Apply one timeline event to ``network`` as one fault call."""
    method = {
        CRASH_NODE: network.crash_node, RECOVER_NODE: network.recover_node,
        LINK_DOWN: network.fail_link, LINK_UP: network.restore_link,
    }[event.kind]
    method(*event.subject)


def up_nodes(network):
    return [node for node in network.graph.nodes if network.node_is_up(node)]


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor", (1,))

    def test_rejects_wrong_subject_arity(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, CRASH_NODE, (1, 2))
        with pytest.raises(ValueError):
            FaultEvent(1.0, LINK_DOWN, (1,))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultEvent(-0.5, CRASH_NODE, (1,))


class TestFaultTimeline:
    def test_events_sorted_by_time(self):
        timeline = FaultTimeline([
            FaultEvent(2.0, CRASH_NODE, (1,)),
            FaultEvent(0.5, CRASH_NODE, (2,)),
            FaultEvent(1.0, RECOVER_NODE, (2,)),
        ])
        assert [event.time for event in timeline] == [0.5, 1.0, 2.0]

    def test_stable_order_for_simultaneous_events(self):
        first = FaultEvent(1.0, CRASH_NODE, (1,))
        second = FaultEvent(1.0, CRASH_NODE, (2,))
        timeline = FaultTimeline([first, second])
        assert list(timeline) == [first, second]

    def test_iterates_every_event(self):
        assert list(FaultTimeline()) == []
        timeline = FaultTimeline([
            FaultEvent(0.1, LINK_DOWN, (1, 2)),
            FaultEvent(0.2, LINK_UP, (1, 2)),
            FaultEvent(0.3, LINK_DOWN, (1, 2)),
        ])
        assert Counter(event.kind for event in timeline) == {LINK_DOWN: 2, LINK_UP: 1}


class TestBuilders:
    def test_waves_pair_crash_with_recovery(self, grid, rng):
        timeline = crash_recover_waves(
            grid, rng, waves=3, wave_size=2, start=1.0, period=2.0,
            downtime=0.5,
        )
        counts = Counter(event.kind for event in timeline)
        assert counts[CRASH_NODE] == 6
        assert counts[RECOVER_NODE] == 6
        crashes = [e for e in timeline if e.kind == CRASH_NODE]
        recoveries = {
            (e.subject, e.time) for e in timeline if e.kind == RECOVER_NODE
        }
        for crash in crashes:
            assert (crash.subject, crash.time + 0.5) in recoveries

    def test_waves_never_touch_protected_nodes(self, grid, rng):
        protected = {(0, 0), (1, 1)}
        timeline = crash_recover_waves(
            grid, rng, waves=10, wave_size=3, start=0.0, period=1.0,
            downtime=0.5, protected=protected,
        )
        struck = {event.subject[0] for event in timeline}
        assert not struck & protected

    def test_waves_do_not_restrike_down_nodes(self, grid, rng):
        """With downtime > period, a node still down from an earlier wave
        is never re-struck (which would pair with the earlier recovery and
        shorten its declared outage)."""
        timeline = crash_recover_waves(
            grid, rng, waves=6, wave_size=8, start=0.0, period=0.5,
            downtime=2.0,
        )
        down_until = {}
        for event in timeline:
            node = event.subject[0]
            if event.kind == CRASH_NODE:
                assert down_until.get(node, 0.0) <= event.time
                down_until[node] = event.time + 2.0

    def test_waves_reject_all_protected(self, grid, rng):
        with pytest.raises(ValueError):
            crash_recover_waves(
                grid, rng, waves=1, wave_size=1, start=0.0, period=1.0,
                downtime=0.5, protected=set(grid.nodes),
            )

    def test_flaps_use_real_links(self, grid, rng):
        timeline = link_flaps(
            grid, rng, flaps=5, start=0.0, period=1.0, downtime=0.25
        )
        for event in timeline:
            assert event.kind in (LINK_DOWN, LINK_UP)
            assert grid.has_edge(*event.subject)
        assert Counter(event.kind for event in timeline) == {LINK_DOWN: 5, LINK_UP: 5}

    def test_partition_actually_disconnects(self, grid):
        network = Network(grid, delivery_mode="unicast")
        region = {(0, 0), (0, 1), (1, 0), (1, 1)}
        for u, v in grid.edges:
            if (u in region) != (v in region):
                apply(network, FaultEvent(1.0, LINK_DOWN, (u, v)))
        outcome = network.deliver(
            (0, 0), frozenset({(3, 3)}), "post", mode="unicast"
        )
        assert outcome.unreachable == {(3, 3)}


class TestFaultsOnANetwork:
    def test_each_event_advances_the_revision(self, grid):
        # A new revision drops the planner's memo: the same plan misses
        # again after every event.
        network = Network(grid, delivery_mode="unicast")
        route = ((0, 0), frozenset({(3, 3)}), "unicast")
        network.planner.plan(*route)
        for event in [
            FaultEvent(0.0, LINK_DOWN, ((0, 0), (0, 1))),
            FaultEvent(1.0, LINK_UP, ((0, 0), (0, 1))),
            FaultEvent(2.0, CRASH_NODE, ((2, 2),)),
        ]:
            apply(network, event)
            network.planner.plan(*route)
        assert network.stats.plan_events[PLAN_MISS] == 4

    def test_a_crash_empties_the_node_and_liveness_is_the_fault_plan(
        self, grid, rng
    ):
        # There is one liveness record, the fault plan, and one
        # posting store: after every crash/recover event the store holds
        # nothing at a node that has been down, and a reset with nodes down
        # brings everything back up and empty.
        network = Network(grid, delivery_mode="unicast")
        port = Port("svc")
        network.post((0, 0), port, frozenset(network.graph.nodes))
        assert set(network.cache_sizes().values()) == {1}
        timeline = crash_recover_waves(
            grid, rng, waves=4, wave_size=3, start=0.0, period=1.0,
            downtime=2.5,
        )
        assert sum(event.kind == CRASH_NODE for event in timeline) >= 4
        crashed, ever_down = set(), set()
        for index, event in enumerate(timeline):
            apply(network, event)
            node = event.subject[0]
            (crashed.add if event.kind == CRASH_NODE else crashed.discard)(node)
            ever_down |= crashed
            assert set(up_nodes(network)) == set(network.graph.nodes) - crashed
            assert network.cache_sizes() == {
                node: int(node not in ever_down) for node in network.graph.nodes
            }, f"after event {index}: {event}"
            assert set(network.postings.holders(port)) == (
                set(network.graph.nodes) - ever_down
            )
        assert ever_down
        network.crash_node((0, 0))
        network.crash_node((3, 3))
        network.reset_for_reuse()
        assert up_nodes(network) == network.graph.nodes
        assert not network.postings.holders(port)


class TestFaultPlanClear:
    def test_clear_empty_plan_keeps_revision(self):
        plan = FaultPlan()
        revision = plan.revision
        plan.clear()
        assert plan.revision == revision

    def test_clear_active_plan_bumps_revision(self):
        plan = FaultPlan()
        plan.crash_node(1)
        revision = plan.revision
        plan.clear()
        assert plan.revision == revision + 1
        assert not plan.crashed_nodes and not plan.failed_links
