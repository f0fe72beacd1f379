"""``Network.query`` against the walk it replaced.

A locate used to visit every reached node of Q(j), ask its cache, and price
each reply with ``has_route`` + ``distance`` *from the responder*.  It now
takes ``holders(port) ∩ reached`` from the posting store and reads every
reply distance from the client's own routing row.  The old body is kept
here, verbatim but for the store's per-node reads, and both are driven
through the same seeded history on twin networks — crash waves, link flaps,
migrations, withdrawals, two equivalent servers per port — for every
strategy of the differential matrix in every delivery mode.  Everything a
query can be observed by has to agree: the ``QueryOutcome`` (tuple order
included), all six ``MessageStats`` families (``plan_events`` among them:
the reply route is a reported event) and the tracer's event stream.
"""

import random

import pytest
from test_differential_matrix import IDS, STRATEGY_TOPOLOGIES

from repro.core.exceptions import NodeDownError
from repro.core.types import Port
from repro.network.simulator import DELIVERY_MODES, QueryOutcome
from repro.network.stats import QUERY, REPLY
from repro.obs.spans import SpanRecorder, active_tracer, tracing
from repro.workload import build_strategy, build_topology


def walk_every_node_query(net, client_node, port, targets, mode, collect_all):
    """``Network.query`` as it was while every node owned its cache."""
    outcome = net.deliver(client_node, targets, QUERY, mode=mode)
    records, responders = [], []
    reply_hops = 0
    lost_replies = 0
    mode = mode or net.delivery_mode
    ideal = mode == "ideal"
    reply_table = None if ideal else net.planner.routing_table()
    for target in outcome.reached:
        if not net.node_is_up(target):
            raise NodeDownError(target)
        if collect_all:
            found = net.postings.lookup_all(target, port)
        else:
            record = net.postings.lookup(target, port)
            found = () if record is None else (record,)
        if not found:
            continue
        if target != client_node:
            if ideal:
                reply_hops += 1
            elif reply_table.has_route(target, client_node):
                reply_hops += reply_table.distance(target, client_node)
            else:
                lost_replies += 1
                continue
        records.extend(found)
        responders.append(target)
    net.stats.record(
        REPLY, reply_hops, len(responders) + lost_replies, len(responders)
    )
    tracer = active_tracer()
    if tracer is not None:
        tracer.event(
            "route", category=REPLY, hops=reply_hops,
            responders=len(responders), lost=lost_replies,
        )
    return QueryOutcome(
        tuple(records), frozenset(responders), outcome.reached,
        outcome.hops, reply_hops,
    )


class Twin:
    """One network, its strategy and its span stream."""

    def __init__(self, strategy, topology, mode, query):
        self.topology = build_topology(topology)
        self.net = self.topology.build_network(delivery_mode=mode)
        self.strategy = build_strategy(strategy, self.topology)
        self.tracer = SpanRecorder()
        self.query = query

    def locate(self, client, port, collect_all):
        targets = frozenset(self.strategy.query_set(client, port))
        with tracing(self.tracer):
            try:
                return self.query(
                    self.net, client, port, targets, None, collect_all
                )
            except NodeDownError as error:
                return ("down", error.node)


def history(rng, nodes, edges, ports, steps):
    """A seeded op stream: what happens, not how a network answers it."""
    servers = {}  # server id -> (node, port)
    for index in range(2 * len(ports)):  # two equivalent servers per port
        servers[f"srv{index}"] = (rng.choice(nodes), ports[index % len(ports)])
        yield ("post", f"srv{index}", *servers[f"srv{index}"])
    down_nodes, down_links = [], []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            yield ("locate", rng.choice(nodes), rng.choice(ports),
                   rng.random() < 0.5)
        elif roll < 0.65:  # a crash wave of two, or the previous one healing
            if down_nodes:
                yield ("recover", down_nodes.pop())
            else:
                down_nodes = rng.sample(nodes, 2)
                for node in down_nodes:
                    yield ("crash", node)
        elif roll < 0.78 and edges:  # a link flap
            if down_links and rng.random() < 0.5:
                yield ("link_up", *down_links.pop())
            else:
                down_links.append(rng.choice(edges))
                yield ("link_down", *down_links[-1])
        elif roll < 0.9:  # a migration: withdraw at the old home, re-post
            server = rng.choice(sorted(servers))
            old, port = servers[server]
            servers[server] = (rng.choice(nodes), port)
            yield ("unpost", server, old, port)
            yield ("post", server, *servers[server])
        else:  # a refresh: the same posting again, newer timestamp
            server = rng.choice(sorted(servers))
            yield ("post", server, *servers[server])


def apply(twin, op):
    net, kind = twin.net, op[0]
    if kind == "locate":
        return twin.locate(*op[1:])
    if kind in ("post", "unpost"):
        server, node, port = op[1:]
        if not net.node_is_up(node):
            return None
        targets = frozenset(twin.strategy.post_set(node, port))
        send = net.post if kind == "post" else net.unpost
        with tracing(twin.tracer):
            return send(node, port, targets, server_id=server)
    if kind == "crash":
        return net.crash_node(op[1])
    if kind == "recover":
        return net.recover_node(op[1])
    if kind == "link_down":
        return net.fail_link(*op[1:])
    return net.restore_link(*op[1:])


@pytest.mark.parametrize("mode", DELIVERY_MODES)
@pytest.mark.parametrize("strategy,topology", STRATEGY_TOPOLOGIES, ids=IDS)
def test_intersection_query_equals_the_walk(strategy, topology, mode):
    change = Twin(strategy, topology, mode,
                  lambda net, *args: net.query(*args))
    walk = Twin(strategy, topology, mode, walk_every_node_query)
    nodes = sorted(change.net.node_ids(), key=repr)
    edges = sorted(change.net.graph.edges, key=repr)
    ports = [Port("alpha"), Port("beta")]
    answered = several = 0
    for op in history(random.Random(f"{strategy}/{topology}/{mode}"),
                      nodes, edges, ports, steps=260):
        got, expected = apply(change, op), apply(walk, op)
        assert got == expected, op
        if op[0] == "locate" and isinstance(got, QueryOutcome):
            assert got.records == expected.records  # order included
            answered += got.found
            several += len(got.responding_nodes) > 1
        for name, family in change.net.stats._families():
            assert family == getattr(walk.net.stats, name), (name, op)
    assert [span.to_dict() for span in change.tracer.spans] == [
        span.to_dict() for span in walk.tracer.spans
    ]
    # The history was not idle: matches were made, and — wherever P and Q
    # can meet in more than one node — by several responders at once.
    assert answered >= 50
    assert several > 0 or strategy in ("centralized", "hash-locate", "sweep")
