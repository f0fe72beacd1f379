"""Cross-strategy differential suite: one contract, every strategy.

The matrix engine only makes sense if every rendezvous strategy honours the
same observable contract, so a small fixed matrix is driven through each of
them (every universe-based strategy in ``strategies/registry.py``, plus the
subgraph decomposition and every topology-specific strategy on its home
topology) and the shared invariants are pinned:

* every lookup resolves to an outcome or raises ``NodeDownError`` — nothing
  else escapes, and every request is accounted as a success or a failure;
* message-stats conservation: ``sent = delivered + dropped`` per category,
  in every delivery mode;
* the strategy is total and its matrix keeps (M1), and the checkers of
  ``tests/oracle/`` name the pairs one node dropped from one ``P`` set
  breaks; a server posts at exactly ``P(i)`` and a client meets it at
  ``P(i) ∩ Q(j)`` until it withdraws;
* measured rendezvous cost respects the paper's Proposition 2 lower bound
  (``core/bounds.py``) — no strategy can beat ``(2/n)·Σ sqrt(k_i)``;
* identical scenarios produce identical results (determinism), faults and
  churn included;
* the hops a request *reports* (``RequestOutcome.locate_hops`` /
  ``payload_hops``, handed up from the network's return values) equal the
  hops the network's ledger *charged* across the call, in every delivery
  mode and on every exit of the request path.
"""

from dataclasses import replace

import pytest
from oracle.ledger import conservation_violations, read_ledger
from oracle.rendezvous import read_matrix, validate, verify_m1

from repro.core.bounds import verify_proposition2
from repro.core.exceptions import NodeDownError
from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.network.stats import PAYLOAD, POST, QUERY, REPLY
from repro.processes.system import DistributedSystem
from repro.strategies import CheckerboardStrategy
from repro.topologies import RingTopology
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    ScenarioSpec,
    WorkloadDriver,
    build_strategy,
    build_topology,
)
from repro.workload.spec import STRATEGIES

#: Every universe strategy runs on the complete graph; each
#: topology-specific strategy runs on its home topology; the subgraph
#: decomposition runs on a grid (any connected graph works).
STRATEGY_TOPOLOGIES = [
    *[(name, "complete:16")
      for name, (required, _) in sorted(STRATEGIES.items()) if required is None],
    ("subgraph", "manhattan:4"),
    ("manhattan", "manhattan:4"),
    ("hypercube", "hypercube:3"),
    ("ccc", "ccc:2"),
    ("projective", "projective:2"),
    ("hierarchy", "hierarchy:2x2"),
    ("tree", "tree:2x3"),
]

IDS = [f"{strategy}@{topology}" for strategy, topology in STRATEGY_TOPOLOGIES]


def cell_spec(strategy: str, topology: str) -> ScenarioSpec:
    """The fixed differential cell: faults and churn active, modest size."""
    return ScenarioSpec(
        name=f"diff/{topology}/{strategy}",
        topology=topology,
        strategy=strategy,
        operations=220,
        clients=3,
        servers=4,
        ports=2,
        delivery_mode="ideal",
        seed=29,
        arrival=ArrivalSpec(kind="poisson", rate=400.0),
        churn=ChurnSpec(kind="failover", rate=2.0, downtime=0.2),
        faults=FaultRegimeSpec(kind="waves", events=2, size=1, start=0.1,
                               period=0.25, downtime=0.15),
    )


@pytest.mark.parametrize("strategy,topology", STRATEGY_TOPOLOGIES, ids=IDS)
class TestSharedContract:
    def test_every_request_accounted_and_stats_conserve(
        self, strategy, topology
    ):
        spec = cell_spec(strategy, topology)
        network = build_topology(topology).build_network(
            delivery_mode=spec.delivery_mode
        )
        result = WorkloadDriver(spec, network=network).run()
        metrics = result.metrics

        # Accounting: every lookup resolved one way or the other.
        assert metrics.requests == spec.operations
        assert metrics.successes + metrics.failures == metrics.requests
        assert metrics.locates >= metrics.requests - metrics.cache_hits - \
            metrics.failures

        # Conservation, on the very network the cell ran over: sent ==
        # delivered + dropped for every per-destination traffic class.
        sent, delivered, dropped = read_ledger(network.stats)
        assert conservation_violations(sent, delivered, dropped) == {}
        assert conservation_violations(
            sent, delivered, dropped, (POST, QUERY, REPLY, PAYLOAD)
        ) == {}
        # The cell was not trivially idle.
        assert sent[QUERY] > 0
        assert delivered[QUERY] > 0

    def test_rendezvous_cost_respects_lower_bound(self, strategy, topology):
        """Proposition 2: no strategy's average #P + #Q beats
        (2/n)·Σ sqrt(k_i)."""
        resolved_topology = build_topology(topology)
        instance = build_strategy(strategy, resolved_topology)
        matrix = RendezvousMatrix.from_strategy(
            instance, resolved_topology.nodes(), port=Port("diff-bound")
        )
        measured, bound = verify_proposition2(matrix)
        assert measured >= bound - 1e-9, (
            f"{strategy} on {topology}: measured m(n)={measured:.4f} "
            f"below the Proposition 2 bound {bound:.4f}"
        )

    def test_lookup_resolves_or_raises_node_down(self, strategy, topology):
        """A lookup from an up node returns a MatchResult even when the
        rendezvous is gutted; a lookup from a down node raises
        NodeDownError — never anything else."""
        resolved_topology = build_topology(topology)
        network = resolved_topology.build_network(delivery_mode="ideal")
        matchmaker = MatchMaker(
            network, build_strategy(strategy, resolved_topology)
        )
        port = Port("diff-contract")
        nodes = sorted(resolved_topology.nodes(), key=repr)
        server_node, client_node = nodes[0], nodes[-1]
        matchmaker.register_server(server_node, port)

        found = matchmaker.locate(client_node, port)
        assert found.found

        # Gut the rendezvous: crash every queried node except the client's
        # own; the lookup must still resolve (possibly to "not found").
        for node in matchmaker.query_set(client_node, port):
            if node != client_node:
                network.crash_node(node)
        gutted = matchmaker.locate(client_node, port)
        assert gutted.found in (True, False)

        # A client on a crashed node cannot look anything up.
        network.crash_node(client_node)
        with pytest.raises(NodeDownError):
            matchmaker.locate(client_node, port)

    def test_identical_cells_are_deterministic(self, strategy, topology):
        spec = cell_spec(strategy, topology)
        first = WorkloadDriver(spec).run()
        second = WorkloadDriver(spec).run()
        assert first.to_dict() == second.to_dict()
        assert first.plan_cache == second.plan_cache

    @pytest.mark.parametrize("mode", ["unicast", "multicast"])
    def test_stats_conserve_in_the_routed_modes(self, strategy, topology, mode):
        spec = replace(cell_spec(strategy, topology), delivery_mode=mode)
        network = build_topology(topology).build_network(delivery_mode=mode)
        WorkloadDriver(spec, network=network).run()
        sent, delivered, dropped = read_ledger(network.stats)
        assert conservation_violations(
            sent, delivered, dropped, (POST, QUERY, REPLY, PAYLOAD)
        ) == {}
        assert delivered[POST] > 0 and delivered[QUERY] > 0

    def test_the_strategy_is_total_and_its_matrix_keeps_m1(self, strategy, topology):
        nodes, post, query, entries = oracle_view(strategy, topology)
        assert validate(nodes, post, query) == []
        assert verify_m1(post, query, entries) == []

    def test_a_node_dropped_from_one_post_set_is_named(self, strategy, topology):
        """The checkers see a strategy bug on every strategy: the pairs
        whose entry held the dropped node break (M1), and the pairs it was
        the only rendezvous of lose their match."""
        nodes, post, query, entries = oracle_view(strategy, topology)
        server = nodes[0]
        dropped = min(set().union(*(entries[server, j] for j in nodes)), key=repr)
        post[server] = post[server] - {dropped}
        assert verify_m1(post, query, entries) == [
            (server, j) for j in nodes if dropped in entries[server, j]
        ]
        assert validate(nodes, post, query) == [
            f"no rendezvous node for ({server!r}, {j!r})"
            for j in nodes if entries[server, j] == {dropped}
        ]

    def test_a_server_posts_at_p_and_a_client_meets_it_at_p_and_q(
        self, strategy, topology
    ):
        resolved_topology = build_topology(topology)
        network = resolved_topology.build_network(delivery_mode="ideal")
        instance = build_strategy(strategy, resolved_topology)
        matchmaker = MatchMaker(network, instance)
        port = Port("diff-rendezvous")
        nodes = sorted(resolved_topology.nodes(), key=repr)
        server_node, client_node = nodes[0], nodes[-1]
        post = frozenset(instance.post_set(server_node, port))
        registration = matchmaker.register_server(server_node, port)
        assert set(registration.posted_at) == set(network.postings.holders(port)) == post
        located = matchmaker.locate(client_node, port)
        assert located.found
        assert located.rendezvous_nodes == post & instance.query_set(client_node, port)
        matchmaker.deregister_server(registration)
        assert not network.postings.holders(port)
        assert not matchmaker.locate(client_node, port).found


def oracle_view(strategy, topology):
    """``(nodes, P, Q, R)`` of a cell's strategy, in ``repr`` node order,
    as plain data for the checkers in ``tests/oracle/``."""
    resolved_topology = build_topology(topology)
    nodes = sorted(resolved_topology.nodes(), key=repr)
    built, port = build_strategy(strategy, resolved_topology), Port("diff-oracle")
    matrix = RendezvousMatrix.from_strategy(built, nodes, port=port)
    return (nodes, *read_matrix(matrix, built, port))


# -- returned hops versus charged hops ---------------------------------------


def charged_hops(network, call):
    """Run ``call``; returns ``(result, locate, payload, post)`` hop deltas.

    This is the derivation the request path used to do in ``src`` —
    counters read before and after — kept here as the oracle for the
    numbers that are now handed up as return values.
    """
    hops = network.stats.hops
    before = {c: hops.get(c, 0) for c in (QUERY, REPLY, PAYLOAD, POST)}
    result = call()
    delta = {c: hops.get(c, 0) - before[c] for c in before}
    return result, delta[QUERY] + delta[REPLY], delta[PAYLOAD], delta[POST]


@pytest.fixture
def audited_requests(monkeypatch):
    """Check every ``DistributedSystem.request`` and every
    ``MatchMaker.register_server`` against the ledger; returns the list of
    audited request outcomes."""
    outcomes = []
    real_request = DistributedSystem.request
    real_register = MatchMaker.register_server

    def request(self, client, port, payload):
        outcome, locate, payload_hops, post = charged_hops(
            self.network, lambda: real_request(self, client, port, payload)
        )
        assert (outcome.locate_hops, outcome.payload_hops) == (
            locate, payload_hops,
        ), outcome
        assert post == 0
        outcomes.append(outcome)
        return outcome

    def register_server(self, node, port, server_id=None):
        registration, locate, payload_hops, post = charged_hops(
            self._network,  # stands in for the method, so reads its state
            lambda: real_register(self, node, port, server_id=server_id),
        )
        assert (registration.post_hops, locate, payload_hops) == (post, 0, 0)
        return registration

    monkeypatch.setattr(DistributedSystem, "request", request)
    monkeypatch.setattr(MatchMaker, "register_server", register_server)
    return outcomes


@pytest.mark.parametrize("mode", ["ideal", "unicast", "multicast"])
@pytest.mark.parametrize("strategy,topology", STRATEGY_TOPOLOGIES, ids=IDS)
def test_reported_hops_equal_charged_hops(
    strategy, topology, mode, audited_requests
):
    spec = replace(cell_spec(strategy, topology), delivery_mode=mode)
    result = WorkloadDriver(spec).run()
    assert len(audited_requests) == spec.operations
    metrics = result.metrics
    # The driver recorded exactly what the outcomes reported.
    assert metrics.locate_hops.count == spec.operations
    assert round(metrics.locate_hops.mean * spec.operations) == sum(
        outcome.locate_hops for outcome in audited_requests
    )
    assert round(metrics.request_hops.mean * spec.operations) == sum(
        outcome.locate_hops + outcome.payload_hops
        for outcome in audited_requests
    )
    assert metrics.stale_retries == sum(o.retries for o in audited_requests)


class TestReportedHopsOnEveryExit:
    """The exits a healthy sweep rarely takes, each forced on a 6-ring
    (unicast, so a cut link really loses routes)."""

    @staticmethod
    def ring_system(max_retries):
        topology = RingTopology(6)
        network = Network(topology.graph, delivery_mode="unicast")
        return DistributedSystem(
            network, CheckerboardStrategy(topology.nodes()),
            max_retries=max_retries,
        )

    @pytest.fixture
    def system(self):
        return self.ring_system(max_retries=1)

    def test_not_found(self, system, audited_requests):
        client = system.create_client(0)
        outcome = system.request(client, Port("nobody-serves-this"), None)
        assert not outcome.ok and "no server found" in outcome.error
        assert outcome.locate_hops > 0 and outcome.payload_hops == 0

    def test_stale_address_then_retry(self, system, audited_requests):
        port = Port("svc")
        server = system.create_server(3, port)
        client = system.create_client(0)
        first = system.request(client, port, None)
        system.migrate_server(server, 4)
        second = system.request(client, port, None)
        assert first.ok and second.ok
        assert (second.used_cached_address, second.retries) == (True, 1)
        assert second.locate_hops > 0 and second.payload_hops > 0
        third = system.request(client, port, None)  # validated cache hit
        assert (third.locates, third.locate_hops) == (0, 0)
        # Round trips on the ring: 0 <-> 3 is 2 x 3 hops, 0 <-> 4 is 2 x 2.
        assert (first.payload_hops, third.payload_hops) == (6, 4)

    def test_route_lost_on_the_last_attempt(self, audited_requests):
        system = self.ring_system(max_retries=0)
        port = Port("svc")
        system.create_server(3, port)
        client = system.create_client(0)
        assert system.request(client, port, None).ok
        # Cut node 3 off (its host stays up, so the address is not stale).
        system.network.fail_link(2, 3)
        system.network.fail_link(3, 4)
        outcome = system.request(client, port, None)
        assert not outcome.ok and "no route" in outcome.error.lower()
        assert (outcome.locates, outcome.retries) == (0, 1)
        assert (outcome.locate_hops, outcome.payload_hops) == (0, 0)

    def test_retry_budget_exhausted(self, audited_requests):
        system = self.ring_system(max_retries=0)
        port = Port("svc")
        server = system.create_server(3, port)
        client = system.create_client(0)
        first = system.request(client, port, None)
        system.migrate_server(server, 4)
        outcome = system.request(client, port, None)  # stale, no retry left
        assert not outcome.ok and "retry budget exhausted" in outcome.error
        assert (outcome.locate_hops, outcome.payload_hops) == (0, 0)
        assert first.locate_hops > 0
        assert [o.ok for o in audited_requests] == [True, False]
