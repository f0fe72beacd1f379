"""Unit tests for the scoped (locality-aware) hash strategy."""

import pytest

from repro.core.exceptions import StrategyError
from repro.core.matchmaker import MatchMaker
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import ScopedHashStrategy
from repro.topologies import CompleteTopology, HierarchicalTopology

LOCAL = Port("os-service")      # meaningful only inside one cluster
CAMPUS = Port("file-service")   # meaningful inside a level-2 network
GLOBAL = Port("mail-gateway")   # global


@pytest.fixture
def hierarchy():
    return HierarchicalTopology.uniform(3, 3)  # 27 basic nodes, 3 levels


@pytest.fixture
def scoped(hierarchy):
    return ScopedHashStrategy(
        hierarchy,
        scopes={LOCAL: 1, CAMPUS: 2, GLOBAL: 3},
        replicas=1,
    )


class TestScopedHashStrategy:
    def test_requires_hierarchy(self):
        with pytest.raises(StrategyError):
            ScopedHashStrategy(CompleteTopology(8))

    def test_port_required(self, scoped, hierarchy):
        with pytest.raises(StrategyError):
            scoped.post_set(hierarchy.nodes()[0])

    def test_default_scope_is_global(self, hierarchy):
        strategy = ScopedHashStrategy(hierarchy)
        assert strategy.scope_of(Port("anything")) == hierarchy.levels

    def test_scope_levels_validated(self, hierarchy):
        with pytest.raises(StrategyError):
            ScopedHashStrategy(hierarchy, scopes={LOCAL: 9})
        with pytest.raises(StrategyError):
            ScopedHashStrategy(hierarchy, scopes={LOCAL: 0})

    def test_local_port_stays_in_cluster(self, scoped, hierarchy):
        node = (1, 2, 0)
        targets = scoped.post_set(node, LOCAL)
        cluster = set(hierarchy.level_members(node, 1))
        assert targets <= cluster

    def test_campus_port_stays_in_level2_subtree(self, scoped, hierarchy):
        node = (2, 0, 1)
        targets = scoped.post_set(node, CAMPUS)
        subtree = set(hierarchy.subtree_leaves(hierarchy.cluster_prefix(node, 2)))
        assert targets <= subtree

    def test_global_port_single_network_wide_rendezvous(self, scoped, hierarchy):
        a, b = (0, 0, 0), (2, 2, 2)
        assert scoped.post_set(a, GLOBAL) == scoped.post_set(b, GLOBAL)

    def test_post_equals_query(self, scoped, hierarchy):
        node = (1, 1, 1)
        assert scoped.post_set(node, CAMPUS) == scoped.query_set(node, CAMPUS)

    def test_local_match_made_within_cluster(self, scoped, hierarchy):
        network = Network(hierarchy.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, scoped)
        matchmaker.register_server((1, 0, 2), LOCAL)
        found_local = matchmaker.locate((1, 0, 1), LOCAL)
        assert found_local.found
        # A client in a different cluster cannot see the local service —
        # locality is the feature, not a bug.
        assert not matchmaker.locate((2, 1, 0), LOCAL).found

    def test_global_match_across_hierarchy(self, scoped, hierarchy):
        network = Network(hierarchy.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, scoped)
        matchmaker.register_server((0, 0, 0), GLOBAL)
        assert matchmaker.locate((2, 2, 2), GLOBAL).found

    def test_match_cost_independent_of_network_size_for_local_ports(self):
        # The addressed-node count of a cluster-scoped service is the replica
        # count, whether the hierarchy has 27 or 125 basic nodes.
        for arity in (3, 5):
            topology = HierarchicalTopology.uniform(arity, 3)
            strategy = ScopedHashStrategy(topology, scopes={LOCAL: 1})
            node = topology.nodes()[0]
            assert len(strategy.post_set(node, LOCAL)) == 1

    def test_replicas_respected_and_bounded(self, hierarchy):
        strategy = ScopedHashStrategy(hierarchy, scopes={CAMPUS: 2}, replicas=3)
        assert len(strategy.post_set((0, 0, 0), CAMPUS)) == 3
        tight = ScopedHashStrategy(hierarchy, scopes={LOCAL: 1}, replicas=3)
        assert len(tight.post_set((0, 0, 0), LOCAL)) == 3
        too_many = ScopedHashStrategy(hierarchy, scopes={LOCAL: 1}, replicas=4)
        with pytest.raises(StrategyError):
            too_many.post_set((0, 0, 0), LOCAL)

    def test_replica_placement_is_pinned(self, hierarchy):
        strategy = ScopedHashStrategy(
            hierarchy, scopes={LOCAL: 1, CAMPUS: 2}, replicas=2
        )
        assert strategy.rendezvous_nodes((0, 0, 0), LOCAL) == \
            {(0, 0, 0), (0, 0, 2)}
        assert strategy.rendezvous_nodes((0, 0, 0), CAMPUS) == \
            {(0, 2, 0), (0, 2, 1)}

    def test_invalid_replicas(self, hierarchy):
        with pytest.raises(StrategyError):
            ScopedHashStrategy(hierarchy, replicas=0)

    def test_local_services_spread_over_the_clusters(self, hierarchy):
        strategy = ScopedHashStrategy(hierarchy, default_scope=1)
        load = dict.fromkeys(hierarchy.nodes(), 0)
        for port in (Port(f"local-{i}") for i in range(30)):
            # The members of a cluster agree on its rendezvous node.
            for chosen in {
                strategy.rendezvous_nodes(node, port)
                for node in hierarchy.nodes()
            }:
                for node in chosen:
                    load[node] += 1
        # Every cluster handles its own copies of the local services: no node
        # carries more than a modest share, and many nodes participate.
        assert sum(load.values()) == 30 * 9  # one rendezvous per cluster per port
        mean_load = sum(load.values()) / len(load)
        assert max(load.values()) <= 2 * mean_load
        assert sum(1 for v in load.values() if v > 0) >= 18
