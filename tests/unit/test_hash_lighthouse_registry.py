"""Unit tests for Hash Locate, Lighthouse Locate and the universe
strategies of the spec's strategy table."""

import pytest
from oracle.rendezvous import read_sets, validate

from repro.core.exceptions import StrategyError
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import (
    DoublingSchedule,
    HashLocateStrategy,
    LighthouseLocate,
    RehashingLocator,
    RulerSchedule,
)
from repro.topologies import CompleteTopology, ManhattanTopology
from repro.workload.spec import STRATEGIES

UNIVERSE = list(range(20))


class TestHashLocateStrategy:
    def test_post_equals_query(self, port):
        strategy = HashLocateStrategy(UNIVERSE)
        assert strategy.post_set(3, port) == strategy.query_set(15, port)

    def test_port_required(self):
        strategy = HashLocateStrategy(UNIVERSE)
        with pytest.raises(StrategyError):
            strategy.post_set(3)

    def test_deterministic_across_instances(self, port):
        a = HashLocateStrategy(UNIVERSE)
        b = HashLocateStrategy(UNIVERSE)
        assert a.rendezvous_nodes(port) == b.rendezvous_nodes(port)

    def test_replica_placement_is_pinned(self):
        # The hash both strategies share (strategies.base.stable_digest)
        # decides where every posting lives; moving it moves every digest.
        strategy = HashLocateStrategy(
            [f"n{i}" for i in range(16)], replicas=3, salt="s1"
        )
        assert strategy.rendezvous_nodes(Port("print-service")) == \
            {"n10", "n11", "n12"}
        assert strategy.rendezvous_nodes(Port("file-service")) == \
            {"n0", "n1", "n10"}

    def test_different_ports_usually_different_nodes(self):
        strategy = HashLocateStrategy(UNIVERSE)
        nodes = {
            next(iter(strategy.rendezvous_nodes(Port(f"svc-{i}")))) for i in range(30)
        }
        assert len(nodes) > 5

    def test_replicas_distinct(self):
        strategy = HashLocateStrategy(UNIVERSE, replicas=4)
        assert len(strategy.rendezvous_nodes(Port("x"))) == 4

    def test_replicas_bounded_by_universe(self):
        with pytest.raises(StrategyError):
            HashLocateStrategy([1, 2], replicas=3)
        with pytest.raises(StrategyError):
            HashLocateStrategy(UNIVERSE, replicas=0)

    def test_rehash_changes_nodes(self, port):
        strategy = HashLocateStrategy(UNIVERSE)
        rehashed = strategy.rehash(1)
        assert rehashed is not strategy
        assert strategy.rehash(0) is strategy
        # Over several ports at least one must move (overwhelmingly likely).
        moved = any(
            strategy.rendezvous_nodes(Port(f"p{i}"))
            != rehashed.rendezvous_nodes(Port(f"p{i}"))
            for i in range(10)
        )
        assert moved

    def test_load_distribution_covers_all_ports(self):
        strategy = HashLocateStrategy(UNIVERSE, replicas=2)
        ports = [Port(f"svc-{i}") for i in range(50)]
        load = strategy.load_distribution(ports)
        assert sum(load.values()) == 100
        assert set(load) == set(UNIVERSE)

    def test_load_reasonably_spread(self):
        strategy = HashLocateStrategy(UNIVERSE)
        ports = [Port(f"svc-{i}") for i in range(200)]
        load = strategy.load_distribution(ports)
        assert max(load.values()) < 200 * 0.25  # no node takes 25% of 200 ports

    def test_negative_rehash_rejected(self):
        with pytest.raises(ValueError):
            HashLocateStrategy(UNIVERSE).rehash(-1)

    def test_port_dependent_flag(self):
        assert HashLocateStrategy(UNIVERSE).port_dependent is True


class TestRehashingLocator:
    def _build(self, replicas=1, attempts=3):
        topology = CompleteTopology(20)
        network = Network(topology.graph, delivery_mode="ideal")
        strategy = HashLocateStrategy(topology.nodes(), replicas=replicas)
        return network, strategy, RehashingLocator(network, strategy, attempts)

    def test_normal_locate_zero_rehash(self, port):
        network, strategy, locator = self._build()
        locator.register_server(4, port)
        record, attempts = locator.locate(11, port)
        assert record is not None
        assert attempts == 0

    def test_rehash_recovers_from_rendezvous_crash(self, port):
        network, strategy, locator = self._build()
        locator.register_server(4, port)
        primary = next(iter(strategy.rendezvous_nodes(port)))
        network.crash_node(primary)
        record, attempts = locator.locate(11, port)
        assert record is not None
        assert attempts >= 1

    def test_unrecoverable_when_all_hashes_down(self, port):
        network, strategy, locator = self._build(attempts=1)
        locator.register_server(4, port)
        for attempt in range(2):
            for node in strategy.rehash(attempt).rendezvous_nodes(port):
                if network.node_is_up(node):
                    network.crash_node(node)
        record, _ = locator.locate(11, port)
        assert record is None

    def test_invalid_attempts(self, port):
        network, strategy, _ = self._build()
        with pytest.raises(ValueError):
            RehashingLocator(network, strategy, max_rehash_attempts=-1)


class TestSchedules:
    def test_doubling_schedule(self):
        schedule = DoublingSchedule(base_length=2, escalate_after=3)
        lengths = [schedule.length_for_trial(t) for t in range(1, 8)]
        assert lengths == [2, 2, 2, 4, 4, 4, 8]

    def test_doubling_validation(self):
        with pytest.raises(ValueError):
            DoublingSchedule(base_length=0)
        with pytest.raises(ValueError):
            DoublingSchedule(escalate_after=0)
        with pytest.raises(ValueError):
            DoublingSchedule().length_for_trial(0)

    def test_ruler_sequence_matches_paper(self):
        # Paper section 4: 1 2 1 3 1 2 1 4 1 2 1 3 1 2 1 5 ...
        assert RulerSchedule.sequence_prefix(16) == [
            1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5,
        ]

    def test_ruler_base_length_multiplier(self):
        schedule = RulerSchedule(base_length=3)
        assert schedule.length_for_trial(8) == 3 * 4

    def test_ruler_long_beam_frequency(self):
        # In 2^k trials there are 2^(k-i) beams of length multiplier i.
        prefix = RulerSchedule.sequence_prefix(32)
        assert prefix.count(1) == 16
        assert prefix.count(2) == 8
        assert prefix.count(3) == 4


class TestLighthouseLocate:
    def _grid_lighthouse(self, **kwargs):
        topology = ManhattanTopology.square(8)
        network = topology.build_network()
        return topology, network, LighthouseLocate(network, seed=5, **kwargs)

    def test_finds_nearby_server(self, port):
        topology, network, lighthouse = self._grid_lighthouse(
            server_beam_length=3, server_period=2, trail_ttl=8
        )
        lighthouse.add_server((4, 4), port)
        result = lighthouse.locate((2, 2), port, max_trials=80)
        assert result.found
        assert result.address is not None
        assert result.trials >= 1

    def test_not_found_without_servers(self, port):
        _, _, lighthouse = self._grid_lighthouse()
        result = lighthouse.locate((0, 0), port, max_trials=10)
        assert not result.found
        assert result.trials == 10

    def test_messages_counted(self, port):
        _, network, lighthouse = self._grid_lighthouse(
            server_beam_length=2, server_period=1, trail_ttl=4
        )
        lighthouse.add_server((3, 3), port)
        result = lighthouse.locate((7, 7), port, max_trials=40)
        assert result.client_messages > 0
        assert result.server_messages > 0
        assert network.stats.total_hops >= result.client_messages + result.server_messages

    def test_trails_expire(self, port):
        topology, network, lighthouse = self._grid_lighthouse(
            server_beam_length=2, server_period=1000, trail_ttl=2
        )
        lighthouse.add_server((4, 4), port)
        # Let the server beam once, then let the Lighthouse's own time run far
        # beyond the TTL with no further beaming: all trails evaporate.
        lighthouse.run_servers_until(0)
        lighthouse.run_servers_until(50)
        result = lighthouse.locate((4, 5), port, max_trials=5)
        assert not result.found

    def test_trails_name_the_server_that_beamed_them(self, port):
        topology, network, lighthouse = self._grid_lighthouse(
            server_beam_length=3, server_period=2, trail_ttl=8
        )
        lighthouse.add_server((4, 4), port)
        lighthouse.run_servers_until(0)
        trail = [
            record
            for node in topology.nodes()
            if (record := network.postings.lookup(node, port)) is not None
        ]
        assert trail
        assert {record.server_id for record in trail} == {"lighthouse@(4, 4)"}

    def test_ruler_schedule_usable(self, port):
        topology = ManhattanTopology.square(6)
        network = topology.build_network()
        lighthouse = LighthouseLocate(
            network, schedule=RulerSchedule(base_length=2), seed=9,
            server_beam_length=2, server_period=2, trail_ttl=6,
        )
        lighthouse.add_server((3, 3), port)
        assert lighthouse.locate((0, 0), port, max_trials=60).found

    def test_parameter_validation(self, port):
        topology = ManhattanTopology.square(4)
        network = topology.build_network()
        with pytest.raises(ValueError):
            LighthouseLocate(network, server_beam_length=0)
        with pytest.raises(ValueError):
            LighthouseLocate(network, server_period=0)
        with pytest.raises(ValueError):
            LighthouseLocate(network, trail_ttl=0)
        lighthouse = LighthouseLocate(network)
        with pytest.raises(ValueError):
            lighthouse.locate((0, 0), port, max_trials=0)

    def test_negative_trial_interval_rejected(self, port):
        # Time only moves forward: a negative interval used to freeze it.
        _, _, lighthouse = self._grid_lighthouse()
        with pytest.raises(ValueError):
            lighthouse.locate((0, 0), port, max_trials=3, trial_interval=-1)
        assert lighthouse.locate((0, 0), port, max_trials=3, trial_interval=4).elapsed_time == 12


class TestUniverseStrategies:
    def test_every_universe_strategy_is_total(self, port):
        universe = list(range(12))
        for required, factory in STRATEGIES.values():
            if required is None:
                strategy = factory(universe)
                assert validate(universe, *read_sets(strategy, universe, port)) == []
