"""Unit tests for the process/service model (repro.processes)."""

import pytest

from repro.core.exceptions import NodeDownError, ProcessLifecycleError
from repro.core.types import Address, Port
from repro.processes import (
    ClientProcess,
    DistributedSystem,
    Process,
    ServerProcess,
    echo_handler,
)
from repro.strategies import CheckerboardStrategy, ManhattanStrategy
from repro.topologies import CompleteTopology, ManhattanTopology


class TestProcess:
    def test_unique_pids(self):
        assert Process(1).pid != Process(1).pid

    def test_address_follows_node(self):
        process = Process(4)
        assert process.address == Address(4)

    def test_kill_and_require_alive(self):
        process = Process(1)
        process.kill()
        assert not process.alive
        with pytest.raises(ProcessLifecycleError):
            process.require_alive()

    def test_move(self):
        process = Process(1)
        process._move_to(5)
        assert process.node == 5

    def test_dead_process_cannot_move(self):
        process = Process(1)
        process.kill()
        with pytest.raises(ProcessLifecycleError):
            process._move_to(2)


class TestServerProcess:
    def test_handle_uses_handler(self, port):
        server = ServerProcess(1, port, handler=lambda x: x * 2)
        assert server.handle(21) == 42

    def test_echo_handler_default(self, port):
        server = ServerProcess(1, port)
        assert server.handle("ping") == "ping"
        assert echo_handler("x") == "x"

    def test_dead_server_cannot_handle(self, port):
        server = ServerProcess(1, port)
        server.kill()
        with pytest.raises(ProcessLifecycleError):
            server.handle("req")


class TestClientProcess:
    def test_address_cache_roundtrip(self, port):
        client = ClientProcess(2)
        assert client.cached_address(port) is None
        client.remember_address(port, Address(7))
        assert client.cached_address(port) == Address(7)
        client.forget_address(port)
        assert client.cached_address(port) is None


@pytest.fixture
def grid_system():
    topology = ManhattanTopology.square(5)
    return DistributedSystem(topology.build_network(), ManhattanStrategy(topology))


class TestDistributedSystem:
    def test_request_roundtrip(self, grid_system, port):
        grid_system.create_server((0, 0), port, handler=lambda x: x.upper())
        client = grid_system.create_client((4, 4))
        outcome = grid_system.request(client, port, "hello")
        assert outcome.ok
        assert outcome.reply == "HELLO"
        assert outcome.locates == 1

    def test_second_request_uses_cached_address(self, grid_system, port):
        grid_system.create_server((0, 0), port)
        client = grid_system.create_client((4, 4))
        grid_system.request(client, port, "a")
        outcome = grid_system.request(client, port, "b")
        assert outcome.ok
        assert outcome.used_cached_address
        assert outcome.locates == 0
        assert client.stats.cache_hits == 1

    def test_unknown_service_fails(self, grid_system, port):
        client = grid_system.create_client((2, 2))
        outcome = grid_system.request(client, port, "x")
        assert not outcome.ok
        assert "no server found" in outcome.error

    def test_migration_transparent_to_clients(self, grid_system, port):
        server = grid_system.create_server((0, 0), port)
        client = grid_system.create_client((4, 4))
        grid_system.request(client, port, "warm-up")
        grid_system.migrate_server(server, (2, 3))
        outcome = grid_system.request(client, port, "after-move")
        assert outcome.ok
        assert outcome.server.node == (2, 3)
        assert outcome.retries >= 1
        assert grid_system.stats.stale_addresses >= 1

    def test_replica_survives_node_crash(self, grid_system, port):
        grid_system.create_server((0, 0), port, handler=lambda x: "primary")
        grid_system.create_server((4, 4), port, handler=lambda x: "replica")
        client = grid_system.create_client((2, 0))
        grid_system.crash_node((0, 0))
        outcome = grid_system.request(client, port, "x")
        assert outcome.ok
        assert outcome.server.node == (4, 4)

    def test_crash_kills_resident_processes(self, grid_system, port):
        server = grid_system.create_server((1, 2), port)
        client = grid_system.create_client((1, 2))
        grid_system.crash_node((1, 2))
        assert not server.alive
        assert not client.alive
        with pytest.raises(ProcessLifecycleError):
            grid_system.request(client, port, "x")

    def test_create_on_down_node_rejected(self, grid_system, port):
        grid_system.network.crash_node((3, 3))
        with pytest.raises(NodeDownError):
            grid_system.create_server((3, 3), port)
        with pytest.raises(NodeDownError):
            grid_system.create_client((3, 3))

    def test_migrate_to_down_node_rejected(self, grid_system, port):
        server = grid_system.create_server((0, 0), port)
        grid_system.network.crash_node((2, 2))
        with pytest.raises(NodeDownError):
            grid_system.migrate_server(server, (2, 2))

    def test_servers_include_dead_ones(self, grid_system, port):
        kept = grid_system.create_server((0, 0), port)
        lost = grid_system.create_server((1, 2), port)
        grid_system.crash_node((1, 2))
        assert grid_system.servers() == [kept, lost]
        assert [server.alive for server in grid_system.servers()] == [
            True, False
        ]

    def test_a_server_without_a_handler_echoes(self, grid_system, port):
        # A handler belongs to its own server: a later server on the same
        # port that is given none echoes, whatever the first one does.
        grid_system.create_server((0, 0), port, handler=lambda x: "first")
        grid_system.create_server((4, 4), port)
        client = grid_system.create_client((2, 2))
        outcome = grid_system.request(client, port, "ping")
        assert outcome.ok
        assert outcome.server.node == (4, 4)  # the freshest posting
        assert outcome.reply == "ping"

    def test_stats_accumulate(self, grid_system, port):
        grid_system.create_server((0, 0), port)
        client = grid_system.create_client((4, 4))
        for payload in range(3):
            assert grid_system.request(client, port, payload).ok
        assert grid_system.stats.requests == 3
        assert grid_system.stats.successful_requests == 3
        assert grid_system.stats.locates >= 1

    def test_server_as_client_hierarchy(self):
        # A query service that calls a database service (paper section 1.3).
        topology = CompleteTopology(16)
        system = DistributedSystem(
            topology.build_network(delivery_mode="ideal"),
            CheckerboardStrategy(topology.nodes()),
        )
        db_port, query_port = Port("db"), Port("query")
        system.create_server(3, db_port, handler=lambda key: {"a": 1}.get(key))
        inner_client = system.create_client(9)
        system.create_server(
            9,
            query_port,
            handler=lambda key: system.request(inner_client, db_port, key).reply,
        )
        shell = system.create_client(14)
        assert system.request(shell, query_port, "a").reply == 1

    def test_max_retries_validation(self):
        topology = CompleteTopology(4)
        with pytest.raises(ValueError):
            DistributedSystem(
                topology.build_network(),
                CheckerboardStrategy(topology.nodes()),
                max_retries=-1,
            )
