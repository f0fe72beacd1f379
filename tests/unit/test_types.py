"""Unit tests for repro.core.types."""

import cProfile
import pickle
from pathlib import PurePath

import pytest

from repro.core.types import Address, MatchResult, Port, PostRecord


class TestPort:
    def test_equality_by_name(self):
        assert Port("printer") == Port("printer")
        assert Port("printer") != Port("scanner")
        assert hash(Port("printer")) == hash(Port("printer"))
        assert len({Port("printer"), Port("printer"), Port("scanner")}) == 2

    def test_text_forms(self):
        port = Port("printer")
        assert str(port) == "port:printer"
        assert f"{port}" == "port:printer"
        assert repr(port) == "Port(name='printer')"

    def test_pickle_round_trip_keeps_the_value(self):
        port = Port("printer")
        copy = pickle.loads(pickle.dumps(port))
        assert copy == port and type(copy) is Port
        assert hash(copy) == hash(port)

    def test_unequal_to_other_kinds_of_name(self):
        assert Port("printer") != Address("printer")
        assert Address("printer") != Port("printer")
        assert Port("printer") != "printer"
        assert "printer" != Port("printer")

    def test_a_keyed_lookup_runs_no_python_code_of_the_module(self):
        # Every locate, post and memo lookup hashes its port: the hash and
        # the equality check must run in C, not in a frame of types.py.
        table = {Port(name): name for name in "abcdefgh"}
        probes = [Port(name) for name in "abcdefgh"] * 10
        profiler = cProfile.Profile()
        profiler.runcall(lambda: [table[probe] for probe in probes])
        assert [
            entry.code.co_name for entry in profiler.getstats()
            if not isinstance(entry.code, str)
            and PurePath(entry.code.co_filename).parts[-2:]
            == ("core", "types.py")
        ] == []

    def test_hashable_and_usable_as_dict_key(self):
        table = {Port("a"): 1, Port("b"): 2}
        assert table[Port("a")] == 1

    def test_ordering_by_name(self):
        assert Port("a") < Port("b")
        names = ["m", "b", "z", "a", "ba"]
        assert [p.name for p in sorted(map(Port, names))] == sorted(names)

    def test_str_contains_name(self):
        assert "printer" in str(Port("printer"))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Port("x").name = "y"


class TestAddress:
    def test_equality_by_node(self):
        assert Address(3) == Address(3)
        assert Address(3) != Address(4)

    def test_tuple_nodes_supported(self):
        assert Address((1, 2)).node == (1, 2)

    def test_str_contains_node(self):
        assert "7" in str(Address(7))


class TestPostRecord:
    def test_newer_timestamp_wins(self):
        old = PostRecord(Port("p"), Address(1), timestamp=1)
        new = PostRecord(Port("p"), Address(2), timestamp=2)
        assert new.is_newer_than(old)
        assert not old.is_newer_than(new)

    def test_tie_broken_deterministically(self):
        a = PostRecord(Port("p"), Address(1), timestamp=5)
        b = PostRecord(Port("p"), Address(2), timestamp=5)
        assert a.is_newer_than(b) != b.is_newer_than(a)

    def test_different_ports_cannot_be_compared(self):
        a = PostRecord(Port("p"), Address(1), timestamp=1)
        b = PostRecord(Port("q"), Address(1), timestamp=2)
        with pytest.raises(ValueError):
            a.is_newer_than(b)

    def test_default_timestamp_and_server_id(self):
        record = PostRecord(Port("p"), Address(1))
        assert record.timestamp == 0
        assert record.server_id == ""


class TestMatchResult:
    def test_match_messages(self):
        result = MatchResult(
            found=True,
            address=Address(4),
            post_messages=5,
            query_messages=3,
            reply_messages=2,
            nodes_posted=5,
            nodes_queried=3,
        )
        assert result.match_messages == 8

    def test_not_found_defaults(self):
        result = MatchResult(found=False)
        assert result.address is None
        assert result.match_messages == 0
        assert result.rendezvous_nodes == frozenset()
