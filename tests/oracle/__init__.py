"""Independent checkers for the paper's guarantees.

Stdlib only, and no ``import repro``: a checker that shares code with what
it checks can share its bugs.  Everything here takes plain data — P and Q
as dicts of node -> frozenset, rendezvous entries as a dict of
(server, client) -> frozenset, message counters as dicts of category ->
int — read once from the system under test and frozen.
"""
