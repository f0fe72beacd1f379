"""Property-based tests (hypothesis) on strategies and the rendezvous
theory.

The properties are the paper's own invariants:

* every strategy built by this library is *total* (every pair rendezvouses);
* constraint (M1) holds for every strategy-derived matrix;
* Propositions 1 and 2 hold for every matrix, however the load is skewed;
* the checkerboard construction stays within a constant factor of 2*sqrt(n);
* the probabilistic formulas are internally consistent.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle.rendezvous import read_matrix, read_sets, validate, verify_m1

from repro.core import bounds, probabilistic
from repro.core.rendezvous import RendezvousMatrix
from repro.core.strategy import FunctionalStrategy
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    HashLocateStrategy,
    SweepStrategy,
)
from repro.core.types import Port

sizes = st.integers(min_value=2, max_value=40)


@st.composite
def arbitrary_singleton_strategy(draw):
    """A random total strategy with singleton-ish structure over 2..12
    nodes.

    Every node is assigned a random post set and query set that are forced to
    share at least one element per pair by always including a common anchor
    chosen per node pair via a deterministic rule (node 0).
    """
    n = draw(st.integers(min_value=2, max_value=12))
    universe = list(range(n))
    post_choices = {
        i: set(draw(st.sets(st.sampled_from(universe), min_size=1, max_size=n)))
        for i in universe
    }
    query_choices = {
        j: set(draw(st.sets(st.sampled_from(universe), min_size=1, max_size=n)))
        for j in universe
    }
    for i in universe:
        post_choices[i].add(0)
        query_choices[i].add(0)
    strategy = FunctionalStrategy(
        post=lambda i: post_choices[i],
        query=lambda j: query_choices[j],
        name="random-anchored",
    )
    return universe, strategy


class TestCheckerboardProperties:
    @given(n=sizes)
    @settings(max_examples=30, deadline=None)
    def test_total_for_every_size(self, n):
        universe = list(range(n))
        strategy = CheckerboardStrategy(universe)
        assert validate(universe, *read_sets(strategy, universe)) == []

    @given(n=sizes)
    @settings(max_examples=30, deadline=None)
    def test_cost_within_constant_of_optimum(self, n):
        universe = list(range(n))
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(universe), universe)
        assert matrix.average_cost() <= 3.5 * math.sqrt(n) + 2

    @given(n=sizes)
    @settings(max_examples=30, deadline=None)
    def test_entries_singleton_for_square_n_small_otherwise(self, n):
        universe = list(range(n))
        strategy = CheckerboardStrategy(universe)
        matrix = RendezvousMatrix.from_strategy(strategy, universe)
        sizes_seen = {
            len(matrix.entry(i, j)) for i in universe for j in universe
        }
        assert min(sizes_seen) >= 1
        if math.isqrt(n) ** 2 == n:
            # Perfect squares tile exactly: every rendezvous set is a single
            # node (the paper's optimal arrangement).
            assert sizes_seen == {1}
        else:
            # Block wrap-around for non-square n may merge a few blocks, but
            # never blows a rendezvous set up beyond a handful of nodes.
            assert max(sizes_seen) <= 4


class TestUniversalInvariants:
    @given(data=arbitrary_singleton_strategy())
    @settings(max_examples=40, deadline=None)
    def test_m1_and_propositions_hold(self, data):
        universe, strategy = data
        matrix = RendezvousMatrix.from_strategy(strategy, universe)
        assert verify_m1(*read_matrix(matrix, strategy)) == []
        measured_product, product_bound = bounds.verify_proposition1(matrix)
        assert measured_product >= product_bound - 1e-9
        measured_cost, cost_bound = bounds.verify_proposition2(matrix)
        assert measured_cost >= cost_bound - 1e-9

    @given(data=arbitrary_singleton_strategy())
    @settings(max_examples=40, deadline=None)
    def test_total_entry_size_at_least_n_squared_when_total(self, data):
        universe, strategy = data
        matrix = RendezvousMatrix.from_strategy(strategy, universe)
        if matrix.is_total():
            # (M2) in its exact form applies to the k_i count of occurrences;
            # at minimum each of the n^2 entries contributes one occurrence.
            assert sum(matrix.multiplicities().values()) >= len(universe) ** 2

    @given(n=sizes)
    @settings(max_examples=20, deadline=None)
    def test_elementary_strategies_cost_identities(self, n):
        universe = list(range(n))
        broadcast = RendezvousMatrix.from_strategy(BroadcastStrategy(universe), universe)
        sweep = RendezvousMatrix.from_strategy(SweepStrategy(universe), universe)
        central = RendezvousMatrix.from_strategy(
            CentralizedStrategy(universe, centre=0), universe
        )
        assert broadcast.average_cost() == n + 1
        assert sweep.average_cost() == n + 1
        assert central.average_cost() == 2.0


class TestLiftProperties:
    @given(n=st.integers(min_value=2, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_lift_doubles_cost_and_quadruples_nodes(self, n):
        base = bounds.checkerboard_matrix(list(range(n)))
        lifted = bounds.lift_matrix(base)
        assert lifted.n == 4 * n
        assert lifted.average_cost() == base.average_cost() * 2
        assert lifted.is_total()


class TestHashLocateProperties:
    @given(
        n=st.integers(min_value=3, max_value=30),
        replicas=st.integers(min_value=1, max_value=3),
        name=st.text(min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_replica_count_and_membership(self, n, replicas, name):
        universe = list(range(n))
        strategy = HashLocateStrategy(universe, replicas=min(replicas, n))
        nodes = strategy.rendezvous_nodes(Port(name))
        assert len(nodes) == min(replicas, n)
        assert nodes <= frozenset(universe)

    @given(n=st.integers(min_value=3, max_value=30), name=st.text(min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_post_equals_query_everywhere(self, n, name):
        universe = list(range(n))
        strategy = HashLocateStrategy(universe)
        port = Port(name)
        assert strategy.post_set(0, port) == strategy.query_set(n - 1, port)


class TestProbabilisticProperties:
    @given(
        n=st.integers(min_value=2, max_value=200),
        p=st.integers(min_value=1, max_value=200),
        q=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_probability_bounds_and_expectation_consistency(self, n, p, q):
        p, q = min(p, n), min(q, n)
        expectation = probabilistic.expected_intersection(p, q, n)
        probability = probabilistic.match_probability(p, q, n)
        assert 0.0 <= probability <= 1.0
        # Markov: P(|P∩Q| >= 1) <= E|P∩Q|.
        assert probability <= expectation + 1e-9
        if p + q > n:
            assert probability == 1.0
