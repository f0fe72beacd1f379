"""Fault timelines: events, regime builders and network application.

Also covers the `random_fault_plan` guard: fault counts beyond what the
active rendezvous size tolerates (section 2.4) are clamped with a warning,
or rejected in strict mode.
"""

import random

import pytest

from repro.core.types import Port
from repro.network.faults import (
    CRASH_NODE,
    LINK_DOWN,
    LINK_UP,
    RECOVER_NODE,
    FaultEvent,
    FaultPlan,
    FaultTimeline,
    correlated_failures,
    crash_recover_waves,
    link_flaps,
    max_tolerated_faults,
    random_fault_plan,
    region_partition,
)
from repro.network.graph import complete_graph
from repro.network.simulator import Network
from repro.topologies import ManhattanTopology


@pytest.fixture
def rng():
    return random.Random(42)


@pytest.fixture
def grid():
    return ManhattanTopology.square(4).graph


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
        assert len(timeline) == 3
        assert timeline.horizon() == 2.0

    def test_stable_order_for_simultaneous_events(self):
        first = FaultEvent(1.0, CRASH_NODE, (1,))
        second = FaultEvent(1.0, CRASH_NODE, (2,))
        timeline = FaultTimeline([first, second])
        assert timeline.events == [first, second]

    def test_merged_interleaves(self):
        a = FaultTimeline([FaultEvent(1.0, CRASH_NODE, (1,))])
        b = FaultTimeline([FaultEvent(0.5, CRASH_NODE, (2,))])
        merged = a.merged(b)
        assert [event.time for event in merged] == [0.5, 1.0]
        assert len(a) == 1 and len(b) == 1  # inputs untouched

    def test_event_counts_and_bool(self):
        assert not FaultTimeline()
        timeline = FaultTimeline([
            FaultEvent(0.1, LINK_DOWN, (1, 2)),
            FaultEvent(0.2, LINK_UP, (1, 2)),
            FaultEvent(0.3, LINK_DOWN, (1, 2)),
        ])
        assert timeline
        assert timeline.event_counts() == {LINK_DOWN: 2, LINK_UP: 1}


class TestBuilders:
    def test_waves_pair_crash_with_recovery(self, grid, rng):
        timeline = crash_recover_waves(
            grid, rng, waves=3, wave_size=2, start=1.0, period=2.0,
            downtime=0.5,
        )
        counts = timeline.event_counts()
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

    def test_correlated_do_not_restrike_down_nodes(self, grid, rng):
        timeline = correlated_failures(
            grid, rng, shots=8, start=0.0, period=0.3, downtime=1.5,
            blast_radius=4,
        )
        down_until = {}
        for event in timeline:
            node = event.subject[0]
            if event.kind == CRASH_NODE:
                assert down_until.get(node, 0.0) <= event.time
                down_until[node] = event.time + 1.5

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
        assert timeline.event_counts() == {LINK_DOWN: 5, LINK_UP: 5}

    def test_partition_cuts_exactly_the_boundary(self, grid, rng):
        timeline = region_partition(
            grid, rng, at=1.0, heal_at=2.0, region_size=4, seed_node=(0, 0)
        )
        region = set(grid.bfs_order((0, 0))[:4])
        downs = [e for e in timeline if e.kind == LINK_DOWN]
        boundary = [
            (u, v) for u, v in grid.edges if (u in region) != (v in region)
        ]
        assert len(downs) == len(boundary)
        for event in downs:
            u, v = event.subject
            assert (u in region) != (v in region)
        # Every cut heals at heal_at.
        ups = {e.subject for e in timeline if e.kind == LINK_UP}
        assert ups == {e.subject for e in downs}

    def test_partition_actually_disconnects(self, grid, rng):
        network = Network(grid, delivery_mode="unicast")
        timeline = region_partition(
            grid, rng, at=1.0, heal_at=2.0, region_size=4, seed_node=(0, 0)
        )
        for event in timeline:
            if event.kind == LINK_DOWN:
                network.apply_fault(event)
        outcome = network.deliver(
            (0, 0), frozenset({(3, 3)}), "post", mode="unicast"
        )
        assert outcome.unreachable == {(3, 3)}

    def test_correlated_blast_is_a_neighbourhood(self, grid, rng):
        timeline = correlated_failures(
            grid, rng, shots=1, start=0.0, period=1.0, downtime=0.5,
            blast_radius=3,
        )
        crashed = [e.subject[0] for e in timeline if e.kind == CRASH_NODE]
        assert 1 <= len(crashed) <= 3
        epicenter = crashed[0]
        for node in crashed[1:]:
            assert node in grid.neighbours(epicenter)


class TestApplyFault:
    def test_apply_fault_round_trip(self, grid):
        network = Network(grid, delivery_mode="unicast")
        network.apply_fault(FaultEvent(0.0, CRASH_NODE, ((1, 1),)))
        assert not network.node_is_up((1, 1))
        network.apply_fault(FaultEvent(1.0, RECOVER_NODE, ((1, 1),)))
        assert network.node_is_up((1, 1))
        network.apply_fault(FaultEvent(2.0, LINK_DOWN, ((0, 0), (0, 1))))
        assert not network.faults.link_is_up((0, 0), (0, 1))
        network.apply_fault(FaultEvent(3.0, LINK_UP, ((0, 0), (0, 1))))
        assert network.faults.link_is_up((0, 0), (0, 1))

    def test_each_event_advances_the_revision(self, grid):
        network = Network(grid, delivery_mode="unicast")
        before = network.faults.revision
        for event in [
            FaultEvent(0.0, LINK_DOWN, ((0, 0), (0, 1))),
            FaultEvent(1.0, LINK_UP, ((0, 0), (0, 1))),
            FaultEvent(2.0, CRASH_NODE, ((2, 2),)),
        ]:
            network.apply_fault(event)
        assert network.faults.revision == before + 3

    def test_a_crash_empties_the_node_and_liveness_is_the_fault_plan(
        self, grid, rng
    ):
        # There is one liveness record, FaultPlan.crashed_nodes, and one
        # posting store: after every crash/recover event the store holds
        # nothing at a node that has been down, and a reset with nodes down
        # brings everything back up and empty.
        network = Network(grid, delivery_mode="unicast")
        port = Port("svc")
        network.post((0, 0), port, frozenset(network.node_ids()))
        assert set(network.cache_sizes().values()) == {1}
        timeline = crash_recover_waves(
            grid, rng, waves=4, wave_size=3, start=0.0, period=1.0,
            downtime=2.5,
        )
        assert timeline.event_counts()[CRASH_NODE] >= 4
        ever_down = set()
        for index, event in enumerate(timeline):
            network.apply_fault(event)
            crashed = network.faults.crashed_nodes
            ever_down |= crashed
            assert set(network.up_nodes()) == set(network.node_ids()) - crashed
            assert network.cache_sizes() == {
                node: int(node not in ever_down) for node in network.node_ids()
            }, f"after event {index}: {event}"
            assert set(network.postings.holders(port)) == (
                set(network.node_ids()) - ever_down
            )
        assert ever_down
        network.crash_node((0, 0))
        network.crash_node((3, 3))
        network.reset_for_reuse()
        assert network.up_nodes() == network.node_ids()
        assert not network.postings.holders(port)
        network.crash_node((1, 2))
        network.reset_to_cold()
        assert network.node_is_up((1, 2))
        assert network.max_cache_size() == 0


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
        assert plan.fault_count == 0


class TestRandomFaultPlanGuard:
    def test_overshoot_clamps_with_warning(self, rng):
        graph = complete_graph(12)
        with pytest.warns(UserWarning, match="clamping"):
            plan = random_fault_plan(graph, 8, rng, rendezvous_size=4)
        assert len(plan.crashed_nodes) == max_tolerated_faults(4) == 3

    def test_overshoot_strict_raises(self, rng):
        graph = complete_graph(12)
        with pytest.raises(ValueError, match="exceed"):
            random_fault_plan(graph, 8, rng, rendezvous_size=4, strict=True)

    def test_within_tolerance_untouched(self, rng, recwarn):
        graph = complete_graph(12)
        plan = random_fault_plan(graph, 3, rng, rendezvous_size=4)
        assert len(plan.crashed_nodes) == 3
        assert not recwarn.list

    def test_no_rendezvous_size_keeps_old_behaviour(self, rng, recwarn):
        graph = complete_graph(12)
        plan = random_fault_plan(graph, 8, rng)
        assert len(plan.crashed_nodes) == 8
        assert not recwarn.list

    def test_clamp_applies_before_population_check(self, rng):
        """An over-ask the clamp satisfies keeps the sweep running even when
        the raw count exceeds the unprotected population."""
        graph = complete_graph(12)
        with pytest.warns(UserWarning, match="clamping"):
            plan = random_fault_plan(graph, 14, rng, rendezvous_size=4)
        assert len(plan.crashed_nodes) == 3


class TestRandomFaultPlanAtTime:
    def test_at_time_returns_timeline_of_crashes(self, grid):
        timeline = random_fault_plan(grid, 3, random.Random(7), at_time=2.5)
        assert isinstance(timeline, FaultTimeline)
        assert timeline.event_counts() == {CRASH_NODE: 3}
        assert all(event.time == 2.5 for event in timeline.events)

    def test_same_seed_fells_the_same_nodes_in_both_shapes(self, grid):
        plan = random_fault_plan(grid, 4, random.Random(99))
        timeline = random_fault_plan(grid, 4, random.Random(99), at_time=1.0)
        struck = {event.subject[0] for event in timeline.events}
        assert struck == set(plan.crashed_nodes)

    def test_default_shape_unchanged(self, grid):
        plan = random_fault_plan(grid, 2, random.Random(5))
        assert isinstance(plan, FaultPlan)
        assert len(plan.crashed_nodes) == 2

    def test_at_time_respects_protected_and_clamp(self, grid):
        protected = list(grid.nodes)[:2]
        with pytest.warns(UserWarning, match="clamping"):
            timeline = random_fault_plan(
                grid, 9, random.Random(3), protected=protected,
                rendezvous_size=4, at_time=0.5,
            )
        struck = {event.subject[0] for event in timeline.events}
        assert len(struck) == 3
        assert struck.isdisjoint(protected)

    def test_shifted_moves_every_event(self, grid):
        timeline = random_fault_plan(grid, 3, random.Random(7), at_time=2.0)
        shifted = timeline.shifted(1.5)
        assert [event.time for event in shifted.events] == [3.5, 3.5, 3.5]
        assert (
            [event.subject for event in shifted.events]
            == [event.subject for event in timeline.events]
        )
