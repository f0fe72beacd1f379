"""The three request-path result records are tuples with a dataclass's face.

``QueryOutcome``, ``MatchResult`` and ``RequestOutcome`` are built once per
locate / request, so they are ``NamedTuple``\\ s filled positionally on the
hot path.  Everything a caller could rely on when they were frozen
dataclasses is pinned here: field names and order, defaults, keyword
construction, immutability, pickling and the derived properties.
"""

import pickle

import pytest

from repro.core.types import Address, MatchResult, Port, PostRecord
from repro.network.simulator import QueryOutcome
from repro.processes.system import RequestOutcome

RECORD = PostRecord(Port("svc"), Address(4), timestamp=3, server_id="s")

#: (class, field order of the frozen dataclass it replaced, one full set of
#: values in that order).
CASES = [
    (
        QueryOutcome,
        ("records", "responding_nodes", "queried_nodes", "query_hops",
         "reply_hops"),
        ((RECORD,), frozenset({4}), frozenset({4, 5}), 2, 1),
    ),
    (
        MatchResult,
        ("found", "address", "rendezvous_nodes", "post_messages",
         "query_messages", "reply_messages", "nodes_posted", "nodes_queried"),
        (True, Address(4), frozenset({4}), 5, 3, 2, 5, 3),
    ),
    (
        RequestOutcome,
        ("ok", "reply", "server", "locates", "retries",
         "used_cached_address", "error", "locate_hops", "payload_hops"),
        (False, None, None, 2, 1, True, "no server found for port:svc", 7, 0),
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, values", CASES, ids=IDS)
class TestRecordContract:
    def test_field_order_is_the_dataclass_order(self, cls, fields, values):
        assert cls._fields == fields

    def test_keyword_and_positional_construction_agree(self, cls, fields, values):
        positional = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        assert positional == by_keyword
        assert hash(positional) == hash(by_keyword)
        for name, value in zip(fields, values):
            assert getattr(positional, name) == value

    def test_attribute_assignment_raises(self, cls, fields, values):
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_pickle_round_trip(self, cls, fields, values):
        record = cls(*values)
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is cls
        assert clone == record


class TestDefaults:
    def test_match_result_needs_only_found(self):
        result = MatchResult(found=False)
        assert result == MatchResult(False, None, frozenset(), 0, 0, 0, 0, 0)
        with pytest.raises(TypeError):
            MatchResult()

    def test_request_outcome_needs_only_ok(self):
        outcome = RequestOutcome(ok=True)
        assert outcome == RequestOutcome(True, None, None, 0, 0, False, "", 0, 0)
        with pytest.raises(TypeError):
            RequestOutcome()

    def test_query_outcome_has_no_defaults(self):
        with pytest.raises(TypeError):
            QueryOutcome(records=())


class TestDerivedValues:
    def test_match_result_properties(self):
        result = MatchResult(*CASES[1][2])
        assert result.total_messages == 10
        assert result.match_messages == 8
        assert result.addressed_nodes == 8

    def test_query_outcome_found_and_freshest(self):
        older = PostRecord(Port("svc"), Address(9), timestamp=1, server_id="t")
        outcome = QueryOutcome((older, RECORD), frozenset({4, 9}),
                               frozenset({4, 9}), 2, 2)
        assert outcome.found
        assert outcome.freshest() is RECORD
        empty = QueryOutcome((), frozenset(), frozenset({4}), 1, 0)
        assert not empty.found
        assert empty.freshest() is None
