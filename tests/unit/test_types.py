"""Unit tests for repro.core.types."""

import pytest

from repro.core.types import Address, MatchResult, Port, PostRecord


class TestPort:
    def test_equality_by_name(self):
        assert Port("printer") == Port("printer")
        assert Port("printer") != Port("scanner")

    def test_hashable_and_usable_as_dict_key(self):
        table = {Port("a"): 1, Port("b"): 2}
        assert table[Port("a")] == 1

    def test_ordering_by_name(self):
        assert Port("a") < Port("b")

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
        assert result.addressed_nodes == 8

    def test_not_found_defaults(self):
        result = MatchResult(found=False)
        assert result.address is None
        assert result.match_messages == 0
        assert result.rendezvous_nodes == frozenset()
