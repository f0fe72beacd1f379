"""Integration coverage for the stale-address retry path (section 2.1).

A client that cached a server's address must transparently survive the
server migrating, dying, or its host crashing: the stale address is
forgotten, a fresh locate runs, and the freshest posting wins.
"""

import pytest

from repro.core.types import Port
from repro.processes import DistributedSystem
from repro.strategies import CheckerboardStrategy
from repro.topologies import CompleteTopology


@pytest.fixture
def system():
    topology = CompleteTopology(16)
    return DistributedSystem(
        topology.build_network(delivery_mode="ideal"),
        CheckerboardStrategy(topology.nodes()),
    )


@pytest.fixture
def port():
    return Port("stale-service")


def warm_cache(system, client, port):
    outcome = system.request(client, port, "warm-up")
    assert outcome.ok
    assert client.cached_address(port) is not None
    return outcome


class TestMigrationStaleness:
    def test_cached_address_goes_stale_on_migration(self, system, port):
        server = system.create_server(3, port)
        client = system.create_client(9)
        warm_cache(system, client, port)

        system.migrate_server(server, 7)
        outcome = system.request(client, port, "after-move")

        assert outcome.ok
        assert outcome.used_cached_address  # it *tried* the stale address
        assert outcome.retries >= 1
        assert outcome.locates >= 1
        assert outcome.server is server
        assert outcome.server.node == 7
        assert client.stats.stale_addresses >= 1
        assert system.stats.stale_addresses >= 1
        # The client's cache now holds the fresh address.
        assert client.cached_address(port).node == 7

    def test_freshest_posting_wins_after_migration_chain(self, system, port):
        server = system.create_server(0, port)
        client = system.create_client(5)
        warm_cache(system, client, port)
        for destination in (4, 8, 12):
            system.migrate_server(server, destination)
        outcome = system.request(client, port, "chase")
        assert outcome.ok
        assert outcome.server.node == 12

    def test_two_servers_fresher_posting_preferred(self, system, port):
        system.create_server(1, port, handler=lambda x: "old")
        client = system.create_client(6)
        warm_cache(system, client, port)
        # A second, fresher server posts later; after the first dies the
        # client must land on the fresh one.
        system.create_server(2, port, handler=lambda x: "new")
        system.crash_node(1)
        outcome = system.request(client, port, "x")
        assert outcome.ok
        assert outcome.reply == "new"


class TestDeathStaleness:
    def test_host_crash_fails_over_to_replica(self, system, port):
        system.create_server(3, port, handler=lambda x: "primary")
        client = system.create_client(9)
        first = warm_cache(system, client, port)
        assert first.reply == "primary"
        # A replica joins after the cache warmed; when the primary's host
        # crashes, the retry locates the replica.
        replica = system.create_server(10, port, handler=lambda x: "replica")
        system.crash_node(3)

        outcome = system.request(client, port, "x")
        assert outcome.ok
        assert outcome.server is replica
        assert outcome.reply == "replica"

    def test_crash_without_replica_exhausts_retries(self, system, port):
        system.create_server(3, port)
        client = system.create_client(9)
        warm_cache(system, client, port)
        system.crash_node(3)

        outcome = system.request(client, port, "x")
        assert not outcome.ok
        assert client.stats.failures == 1
        assert client.cached_address(port) is None


class TestRecoveryAndStorms:
    def test_recovered_node_comes_back_empty(self, system, port):
        system.create_server(3, port)
        client = system.create_client(9)
        warm_cache(system, client, port)
        system.crash_node(3)
        system.recover_node(3)
        assert system.network.node_is_up(3)
        assert system.network.cache_sizes()[3] == 0
        assert system.stats.recoveries == 1
        # The server process died with the crash; a replacement serves again.
        replacement = system.create_server(3, port)
        outcome = system.request(client, port, "x")
        assert outcome.ok
        assert outcome.server is replacement

    def test_invalidation_storm_then_refresh(self, system, port):
        server = system.create_server(3, port)
        client = system.create_client(9)
        warm_cache(system, client, port)
        client.forget_address(port)  # force the next request through a locate

        cleared = system.invalidate_caches()
        assert cleared == 16
        assert system.stats.invalidation_storms == 1
        missed = system.request(client, port, "x")
        assert not missed.ok  # every posting was wiped

        system.refresh_server(server)
        assert system.stats.reposts == 1
        outcome = system.request(client, port, "x")
        assert outcome.ok
