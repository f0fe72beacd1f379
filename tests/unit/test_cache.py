"""Unit tests for repro.network.cache, and its oracle.

``PostingStore`` keeps every node's cache under two keys (node → port and
port → node).  The second half of this file drives it and one reference
``NodeCache`` per node (``tests/reference_cache.py``: the class the store
replaced) with the same seeded operation streams and compares every read
after every operation — a removal path that forgets to un-index a slice
leaves ``holders(port)`` naming a node whose cache is empty, and dies here.
"""

import random

import pytest
from reference_cache import NodeCache

from repro.core.types import Address, Port, PostRecord
from repro.network.cache import PostingStore
from repro.network.graph import complete_graph
from repro.network.simulator import Network


def record(port="p", node=1, ts=1, server="s1"):
    return PostRecord(Port(port), Address(node), timestamp=ts, server_id=server)


def freshness_key(record):
    """The order ``freshest`` picks by: timestamp, then ``repr(address)``."""
    return (record.timestamp, repr(record.address))


def lookup_all(store, node, port):
    """All of ``node``'s postings for ``port``, freshest first."""
    held = store.holders(port).get(node, {})
    return sorted(held.values(), key=freshness_key, reverse=True)


@pytest.fixture
def store():
    return PostingStore(["n"])


class TestPostingStore:
    def test_post_then_lookup(self, store):
        store.post(record(), ["n"])
        found = store.lookup("n", Port("p"))
        assert found is not None
        assert found.address == Address(1)

    def test_lookup_missing_returns_none(self, store):
        assert store.lookup("n", Port("nothing")) is None
        assert lookup_all(store, "n", Port("nothing")) == []

    def test_newer_posting_wins(self, store):
        store.post(record(node=1, ts=1), ["n"])
        store.post(record(node=2, ts=5), ["n"])
        assert store.lookup("n", Port("p")).address == Address(2)

    def test_older_posting_does_not_overwrite(self, store):
        store.post(record(node=2, ts=5), ["n"])
        store.post(record(node=1, ts=1), ["n"])
        assert store.lookup("n", Port("p")).address == Address(2)

    def test_multiple_servers_same_port(self, store):
        store.post(record(node=1, server="a", ts=1), ["n"])
        store.post(record(node=2, server="b", ts=2), ["n"])
        assert len(lookup_all(store, "n", Port("p"))) == 2
        assert store.lookup("n", Port("p")).address == Address(2)

    def test_size_counts_records(self, store):
        store.post(record(port="p", server="a"), ["n"])
        store.post(record(port="q", server="a"), ["n"])
        store.post(record(port="p", server="b"), ["n"])
        assert store.size("n") == 3

    def test_one_post_reaches_every_named_node(self):
        store = PostingStore(range(4))
        store.post(record(), [0, 2])
        assert set(store.holders(Port("p"))) == {0, 2}
        assert [store.size(node) for node in range(4)] == [1, 0, 1, 0]
        assert store.holders(Port("p"))[2] == {"s1": record()}

    def test_forget_server(self, store):
        store.post(record(server="a"), ["n"])
        store.post(record(server="b", node=2), ["n"])
        store.forget_server(Port("p"), "a", ["n"])
        remaining = lookup_all(store, "n", Port("p"))
        assert [r.server_id for r in remaining] == ["b"]
        store.forget_server(Port("p"), "b", ["n"])
        assert not store.holders(Port("p"))

    def test_clear_is_one_node_and_reset_is_all(self):
        store = PostingStore("ab")
        store.post(record(), "ab")
        store.clear("a")
        assert store.size("a") == 0 and store.size("b") == 1
        assert set(store.holders(Port("p"))) == {"b"}
        store.reset()
        assert store.size("b") == 0
        assert not store.holders(Port("p"))

    def test_unknown_node_is_a_key_error(self, store):
        with pytest.raises(KeyError):
            store.post(record(), ["elsewhere"])
        with pytest.raises(KeyError):
            store.lookup("elsewhere", Port("p"))

    def test_expire_drops_at_the_cutoff_and_counts(self, store):
        store.post(record(port="a", ts=2, server="x"), ["n"])
        store.post(record(port="b", ts=10, server="y"), ["n"])
        assert store.expire("n", cutoff=1) == 0
        assert store.expire("n", cutoff=2) == 1
        assert set(store.holders(Port("b"))) == {"n"}
        assert not store.holders(Port("a"))

    def test_fresh_repost_extends_lifetime(self, store):
        store.post(record(ts=0), ["n"])
        store.post(record(ts=8), ["n"])
        assert store.expire("n", cutoff=7) == 0
        assert store.lookup("n", Port("p")).timestamp == 8


# -- the oracle ---------------------------------------------------------------------

NODES = [0, 1, 2, 3, 4]
PORTS = [Port(name) for name in "pqr"]
SERVERS = ["a", "b", "c"]
HOSTS = [0, 1, (2, 0)]


def assert_same_reads(network, reference):
    store = network.postings
    for node in NODES:
        cache = reference[node]
        for port in PORTS:
            assert store.lookup(node, port) == cache.lookup(port)
            assert lookup_all(store, node, port) == cache.lookup_all(port)
        assert store.size(node) == len(cache) == network.cache_sizes()[node]
    for port in PORTS:
        holders = store.holders(port)
        assert set(holders) == {n for n in NODES if port in reference[n]}
        for node, held in holders.items():
            assert list(held.values()) == [
                r for r in reference[node].records() if r.port == port
            ]


@pytest.mark.parametrize("seed", range(12))
def test_store_agrees_with_one_reference_cache_per_node(seed):
    rng = random.Random(seed)
    network = Network(complete_graph(len(NODES)))
    store = network.postings
    reference = {node: NodeCache() for node in NODES}
    clock = 10
    kinds = ["post"] * 8 + [
        "forget_server", "forget_server",
        "crash", "clear", "expire", "reset",
    ]
    for _ in range(300):
        kind = rng.choice(kinds)
        node = rng.choice(NODES)
        port = rng.choice(PORTS)
        some = rng.sample(NODES, rng.randint(1, 3))
        if kind == "post":
            # Older, tied and newer stamps than what is held all occur.
            posting = PostRecord(
                port, Address(rng.choice(HOSTS)),
                timestamp=clock + rng.randint(-3, 3),
                server_id=rng.choice(SERVERS),
            )
            clock += rng.randint(0, 1)
            store.post(posting, some)
            for target in some:
                reference[target].post(posting)
        elif kind == "forget_server":
            server = rng.choice(SERVERS)
            store.forget_server(port, server, some)
            for target in some:
                reference[target].remove_server(port, server)
        elif kind == "crash":
            network.crash_node(node)
            network.recover_node(node)
            reference[node].clear()
        elif kind == "clear":
            store.clear(node)
            reference[node].clear()
        elif kind == "expire":
            cutoff = clock - rng.randint(0, 6)
            assert store.expire(node, cutoff) == reference[node].expire(cutoff)
        else:
            network.reset_for_reuse()
            for cache in reference.values():
                cache.clear()
        assert_same_reads(network, reference)
