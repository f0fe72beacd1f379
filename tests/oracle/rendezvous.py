"""The rendezvous conditions of section 2, checked over plain P/Q data.

A server at node ``i`` posts at every node of ``P(i)``; a client at ``j``
queries every node of ``Q(j)``.  The rendezvous matrix entry ``r_ij`` is
where they meet, and (M1) requires ``r_ij ⊆ P(i) ∩ Q(j)`` — every row's
union inside ``P(i)``, every column's inside ``Q(j)``.  A strategy is total
when every pair has a rendezvous, ``P(i) ∩ Q(j) ≠ ∅``.

:func:`validate` and :func:`verify_m1` return what failed, named, so a
test's assertion shows the first bad pair instead of a bare ``False``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

Sets = Dict[Hashable, FrozenSet[Hashable]]
Entries = Dict[Tuple[Hashable, Hashable], FrozenSet[Hashable]]


def read_sets(strategy, nodes: Iterable[Hashable], port=None) -> Tuple[Sets, Sets]:
    """``(P, Q)`` of ``strategy`` over ``nodes``, read once and frozen.

    The only place a checker touches the system: it calls the strategy's
    two set functions, nothing else.
    """
    nodes = list(nodes)
    return (
        {i: frozenset(strategy.post_set(i, port)) for i in nodes},
        {j: frozenset(strategy.query_set(j, port)) for j in nodes},
    )


def read_matrix(matrix, strategy, port=None) -> Tuple[Sets, Sets, Entries]:
    """``(P, Q, R)``: ``strategy``'s sets over the matrix's nodes and the
    matrix's entries, read once and frozen."""
    nodes = matrix.nodes
    return (
        *read_sets(strategy, nodes, port),
        {(i, j): frozenset(matrix.entry(i, j)) for i in nodes for j in nodes},
    )


def guarantees_match(post: Sets, query: Sets, server: Hashable, client: Hashable) -> bool:
    """Whether a client at ``client`` always finds a server at ``server``."""
    return bool(post[server] & query[client])


def validate(universe: Iterable[Hashable], post: Sets, query: Sets) -> List[str]:
    """Why ``(P, Q)`` is not a total strategy over ``universe`` (empty when
    it is): every member must lie in the universe, and every (server,
    client) pair must have a rendezvous node."""
    nodes = list(universe)
    inside = set(nodes)
    problems = [
        f"P/Q of {node!r} addresses {member!r}, outside the universe"
        for node in nodes
        for member in sorted(post[node] | query[node], key=repr)
        if member not in inside
    ]
    problems += [
        f"no rendezvous node for ({server!r}, {client!r})"
        for server in nodes
        for client in nodes
        if not guarantees_match(post, query, server, client)
    ]
    return problems


def verify_m1(post: Sets, query: Sets, entries: Entries) -> List[Tuple[Hashable, Hashable]]:
    """The (server, client) pairs whose entry breaks (M1): ``r_ij`` holds a
    node outside ``P(i)`` or outside ``Q(j)``."""
    return [
        (server, client)
        for (server, client), entry in entries.items()
        if not entry <= post[server] & query[client]
    ]


def is_wasteful(post: Sets, query: Sets, entries: Entries) -> bool:
    """Whether some node of a ``P(i)`` or ``Q(j)`` is never a rendezvous
    for its row or column — (M1) holds with ``⊂`` where the paper
    recommends ``=`` "to prevent waste in message passes"."""
    rows: Dict[Hashable, set] = {i: set() for i in post}
    columns: Dict[Hashable, set] = {j: set() for j in query}
    for (server, client), entry in entries.items():
        rows[server] |= entry
        columns[client] |= entry
    return any(rows[i] != post[i] for i in post) or any(
        columns[j] != query[j] for j in query
    )
