"""Integration tests: locality-scoped services in the full service model.

The paper's Amoeba passage (§3.5): "'Operating System Service' is thus a
local service, useful only to local clients.  Clients on other hosts must use
similar services, local to their host. ... Nearly every service will be a
local service in some sense, with only few services being truly global."

These tests run that picture end to end: every cluster has its own instance
of the local services, a few campus-wide services exist per level-2 network,
and one global service spans the hierarchy — all located through the scoped
hash strategy on the simulated network.
"""

import pytest

from repro.core.types import Port
from repro.processes import DistributedSystem
from repro.strategies import ScopedHashStrategy
from repro.topologies import HierarchicalTopology

OS_SERVICE = Port("os-service")        # scope 1: per cluster
FILE_SERVICE = Port("file-service")    # scope 2: per campus
MAIL_GATEWAY = Port("mail-gateway")    # scope 3: global


@pytest.fixture
def scoped_system():
    topology = HierarchicalTopology.uniform(3, 3)  # 27 hosts
    strategy = ScopedHashStrategy(
        topology,
        scopes={OS_SERVICE: 1, FILE_SERVICE: 2, MAIL_GATEWAY: 3},
    )
    system = DistributedSystem(topology.build_network(), strategy)
    return topology, system


class TestLocalServices:
    def test_each_cluster_uses_its_own_instance(self, scoped_system):
        topology, system = scoped_system
        # One OS service instance per cluster, answering with its cluster id.
        for top in range(3):
            for mid in range(3):
                cluster = (top, mid)
                system.create_server(
                    cluster + (0,),
                    OS_SERVICE,
                    handler=lambda req, c=cluster: ("cluster", c),
                )
        # Every client reaches the instance of its *own* cluster.
        for top in range(3):
            for mid in range(3):
                client = system.create_client((top, mid, 2))
                reply = system.request(client, OS_SERVICE, "getpid").reply
                assert reply == ("cluster", (top, mid))

    def test_local_service_invisible_outside_its_cluster(self, scoped_system):
        topology, system = scoped_system
        system.create_server((0, 0, 0), OS_SERVICE, handler=lambda r: "here")
        stranger = system.create_client((2, 2, 2))
        outcome = system.request(stranger, OS_SERVICE, "getpid")
        assert not outcome.ok

    def test_local_locate_cheaper_than_global(self, scoped_system):
        topology, system = scoped_system
        system.create_server((0, 0, 0), OS_SERVICE, handler=lambda r: "os")
        system.create_server((0, 0, 0), MAIL_GATEWAY, handler=lambda r: "mail")
        local_client = system.create_client((0, 0, 1))
        remote_client = system.create_client((2, 2, 2))

        network = system.network
        def match_making_hops():
            hops = network.stats.hops
            return hops.get("post", 0) + hops.get("query", 0)

        before = match_making_hops()
        assert system.request(local_client, OS_SERVICE, "x").ok
        local_cost = match_making_hops() - before

        before = match_making_hops()
        assert system.request(remote_client, MAIL_GATEWAY, "x").ok
        global_cost = match_making_hops() - before
        assert local_cost <= global_cost


class TestCampusAndGlobalServices:
    def test_campus_service_spans_its_level2_network_only(self, scoped_system):
        topology, system = scoped_system
        system.create_server((1, 0, 1), FILE_SERVICE, handler=lambda name: f"<{name}>")
        same_campus = system.create_client((1, 2, 2))
        other_campus = system.create_client((0, 0, 0))
        assert system.request(same_campus, FILE_SERVICE, "a.txt").ok
        assert not system.request(other_campus, FILE_SERVICE, "a.txt").ok

    def test_global_service_reachable_from_everywhere(self, scoped_system):
        topology, system = scoped_system
        system.create_server((2, 1, 0), MAIL_GATEWAY, handler=lambda m: ("sent", m))
        for node in ((0, 0, 0), (1, 2, 1), (2, 2, 2)):
            client = system.create_client(node)
            assert system.request(client, MAIL_GATEWAY, "hello").reply == (
                "sent",
                "hello",
            )

    def test_migration_within_scope_stays_transparent(self, scoped_system):
        topology, system = scoped_system
        server = system.create_server((1, 0, 1), FILE_SERVICE, handler=lambda n: n)
        client = system.create_client((1, 1, 1))
        assert system.request(client, FILE_SERVICE, "warm").ok
        system.migrate_server(server, (1, 2, 0))  # still inside campus 1
        outcome = system.request(client, FILE_SERVICE, "after-move")
        assert outcome.ok
        assert outcome.server.node == (1, 2, 0)

    def test_cluster_crash_only_hurts_that_cluster(self, scoped_system):
        topology, system = scoped_system
        for top in range(3):
            system.create_server(
                (top, 0, 0), FILE_SERVICE, handler=lambda n, t=top: ("campus", t)
            )
        # Take down campus 0's file server host.
        system.crash_node((0, 0, 0))
        campus0_client = system.create_client((0, 1, 1))
        campus1_client = system.create_client((1, 1, 1))
        assert not system.request(campus0_client, FILE_SERVICE, "x").ok
        assert system.request(campus1_client, FILE_SERVICE, "x").reply == (
            "campus",
            1,
        )
