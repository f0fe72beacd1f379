"""The checkers catch what they exist to catch.

Each checker runs on the paper's own strategies (where it must stay
silent) and on P/Q data broken the two ways a strategy bug breaks it: one
node dropped from one ``P`` set, and an off-by-one in a Manhattan row.  It
must fail and name the (server, client) pairs that lost their rendezvous.
"""

import ast
from pathlib import Path

import pytest

from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import (
    CentralizedStrategy,
    CheckerboardStrategy,
    ManhattanStrategy,
)
from repro.topologies import ManhattanTopology

from oracle import reach
from oracle.ledger import conservation_violations
from oracle.rendezvous import (
    guarantees_match,
    is_wasteful,
    read_matrix,
    read_sets,
    validate,
    verify_m1,
)

SIDE = 4
GRID = ManhattanTopology.square(SIDE)


@pytest.fixture
def manhattan():
    """``(P, Q, R)`` of row-post / column-query on a 4x4 grid."""
    strategy = ManhattanStrategy(GRID)
    return read_matrix(RendezvousMatrix.from_strategy(strategy, GRID.nodes()), strategy)


class TestTheM1Checker:
    def test_is_silent_on_the_paper_strategies(self, manhattan):
        post, query, entries = manhattan
        assert verify_m1(post, query, entries) == []
        assert validate(GRID.nodes(), post, query) == []
        universe = list(range(16))
        for strategy in (CheckerboardStrategy(universe), CentralizedStrategy(universe, 0)):
            assert validate(universe, *read_sets(strategy, universe)) == []

    def test_one_node_dropped_from_one_post_set_names_its_pairs(self, manhattan):
        post, query, entries = manhattan
        post[(1, 2)] = post[(1, 2)] - {(1, 3)}
        lost = [((1, 2), (row, 3)) for row in range(SIDE)]
        assert verify_m1(post, query, entries) == lost
        assert validate(GRID.nodes(), post, query) == [
            f"no rendezvous node for ({server}, {client})" for server, client in lost
        ]
        assert not guarantees_match(post, query, (1, 2), (0, 3))

    def test_an_off_by_one_in_a_manhattan_row_names_its_pairs(self, manhattan):
        post, query, entries = manhattan
        for node in GRID.nodes():  # range(cols - 1): the last column is lost
            post[node] = frozenset((node[0], c) for c in range(SIDE - 1))
        lost = [
            (server, client)
            for server in GRID.nodes() for client in GRID.nodes()
            if client[1] == SIDE - 1
        ]
        assert verify_m1(post, query, entries) == lost
        assert validate(GRID.nodes(), post, query)[0] == \
            "no rendezvous node for ((0, 0), (0, 3))"

    def test_a_member_outside_the_universe_is_named(self):
        universe = list(range(4))
        post = {i: frozenset({0}) for i in universe}
        query = {j: frozenset({0, 9}) for j in universe}
        assert validate(universe, post, query) == [
            f"P/Q of {node} addresses 9, outside the universe" for node in universe
        ]


class TestWaste:
    def test_row_and_column_unions_equal_to_p_and_q_waste_nothing(self):
        universe = list(range(16))
        strategy = CheckerboardStrategy(universe)
        matrix = RendezvousMatrix.from_strategy(strategy, universe)
        assert not is_wasteful(*read_matrix(matrix, strategy))

    def test_a_posted_node_no_client_queries_is_waste(self, manhattan):
        post, query, entries = manhattan
        assert not is_wasteful(post, query, entries)
        post[(0, 0)] = post[(0, 0)] | {(3, 3)}
        assert is_wasteful(post, query, entries)
        assert verify_m1(post, query, entries) == []


class TestConservation:
    def test_names_the_category_whose_messages_do_not_add_up(self):
        sent = {"post": 5, "query": 4, "reply": 2}
        delivered = {"post": 3, "query": 4}
        dropped = {"post": 2, "reply": 1}
        assert conservation_violations(sent, delivered, dropped) == {}
        assert conservation_violations(
            sent, delivered, dropped, ("post", "query", "reply")
        ) == {"reply": (2, 0, 1)}


def test_the_checkers_share_no_code_with_what_they_check():
    checkers = [p for p in Path(__file__).parent.glob("*.py") if not p.name.startswith("test_")]
    imported = {
        alias.name.split(".")[0] if isinstance(node, ast.Import) else (node.module or "")
        for path in checkers
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert checkers and not any(name.split(".")[0] == "repro" for name in imported)


def test_the_reach_audit_stops_at_a_run_that_fails(tmp_path):
    with pytest.raises(SystemExit) as stopped:
        reach.called(str(tmp_path), [["-c", "raise SystemExit(3)"]])
    assert str(stopped.value) == "reach.py: traced run exited 3: -c raise SystemExit(3)"
