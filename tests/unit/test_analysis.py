"""Unit tests for the analysis subpackage."""

import pytest

from repro.analysis import (
    PAPER_DEGREE_TABLE,
    PAPER_NAMED_SITE_DEGREES,
    PAPER_TOTAL_EDGES,
    PAPER_TOTAL_SITES,
    balanced_cost,
    compare_strategies,
    comparison_table,
    depth_halving_ratio,
    fit_power_law,
    format_table,
    graph_profile,
    measure_strategy,
    observe_exponential_trees,
    observe_factorial_trees,
    optimal_split,
    paper_profile,
    profile_from_histogram,
    relative_error,
    sample_pairs,
    shape_similarity,
    summarize,
    summary_as_dict,
)
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    ManhattanStrategy,
)
from repro.topologies import ManhattanTopology, UUCPNetworkGenerator

UNIVERSE = list(range(16))
PORT = Port("svc")


class TestMatrixSummary:
    def test_summary_fields(self):
        matrix = RendezvousMatrix.from_strategy(CheckerboardStrategy(UNIVERSE), UNIVERSE)
        summary = summarize(matrix)
        assert summary.n == 16
        assert summary.average_cost == pytest.approx(8.0)
        assert summary.lower_bound == pytest.approx(8.0)
        assert summary.optimality_ratio == pytest.approx(1.0)
        assert summary.is_total and summary.is_distributed

    def test_centralized_summary(self):
        matrix = RendezvousMatrix.from_strategy(
            CentralizedStrategy(UNIVERSE, centre=0), UNIVERSE
        )
        summary = summarize(matrix, name="central")
        assert summary.strategy == "central"
        assert summary.average_cost == 2.0
        assert not summary.is_distributed
        assert summary.unused_nodes == 15

    def test_summary_as_dict_keys(self):
        matrix = RendezvousMatrix.from_strategy(BroadcastStrategy(UNIVERSE), UNIVERSE)
        row = summary_as_dict(summarize(matrix))
        assert {"strategy", "n", "m(n)", "bound", "f", "distributed"} <= set(row)


class TestTradeoff:
    def test_balanced_cost(self):
        assert balanced_cost(100) == 20.0
        with pytest.raises(ValueError):
            balanced_cost(0)

    def test_optimal_split_balanced(self):
        split = optimal_split(100, ratio=1.0)
        assert split.product >= 100
        assert split.post_size + split.query_size <= 21

    def test_optimal_split_skews_with_ratio(self):
        # Locates 16x more frequent than posts: queries should get cheaper.
        balanced = optimal_split(256, ratio=1.0)
        skewed = optimal_split(256, ratio=16.0)
        assert skewed.query_size < balanced.query_size
        assert skewed.post_size > balanced.post_size
        assert skewed.product >= 256

    def test_optimal_split_validation(self):
        with pytest.raises(ValueError):
            optimal_split(0)
        with pytest.raises(ValueError):
            optimal_split(10, ratio=0)


class TestUUCPAnalysis:
    def test_paper_table_consistency(self):
        # The legible rows account for almost all sites and edges.
        profile = paper_profile()
        assert profile.site_count <= PAPER_TOTAL_SITES
        assert profile.site_count >= 0.97 * PAPER_TOTAL_SITES
        assert profile.edge_estimate <= PAPER_TOTAL_EDGES
        assert profile.edge_estimate >= 0.9 * PAPER_TOTAL_EDGES

    def test_paper_profile_shape(self):
        profile = paper_profile()
        assert profile.max_degree == 641
        assert profile.terminal_fraction > 0.4
        assert profile.is_heavy_tailed

    def test_named_sites_in_table(self):
        # Every named example site's degree appears as a histogram bucket.
        for degree in PAPER_NAMED_SITE_DEGREES.values():
            assert degree in PAPER_DEGREE_TABLE or degree <= 24

    def test_profile_from_histogram(self):
        profile = profile_from_histogram({1: 6, 2: 3, 10: 1})
        assert profile.site_count == 10
        assert profile.edge_estimate == pytest.approx((6 + 6 + 10) / 2)
        assert profile.terminal_fraction == 0.6
        with pytest.raises(ValueError):
            profile_from_histogram({})

    def test_synthetic_network_matches_paper_shape(self):
        topo = UUCPNetworkGenerator(preferential_bias=6.0).generate(800, seed=3)
        ours = graph_profile(topo.graph)
        differences = shape_similarity(ours, paper_profile())
        assert differences["terminal_fraction"] < 0.15
        assert differences["mean_degree"] < 1.0
        assert ours.is_heavy_tailed


class TestTreeModels:
    def test_factorial_observations_reasonable(self):
        observations = observe_factorial_trees([3, 4, 5], eps=0.0)
        assert len(observations) == 3
        for obs in observations:
            assert obs.actual_depth == obs.levels
            assert obs.predicted_depth > 0

    def test_exponential_observations_error_bounded(self):
        observations = observe_exponential_trees([3, 4, 5], eps=1.0)
        # The asymptotic prediction should be within a factor ~2 of reality
        # for these modest sizes.
        for obs in observations:
            assert obs.predicted_depth == pytest.approx(obs.actual_depth, rel=0.8)

    def test_depth_halving(self):
        assert depth_halving_ratio(2**24, eps=0.5, factor=4.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            depth_halving_ratio(2**10, eps=1.0, factor=0)


class TestComparisonHarness:
    def test_compare_strategies_rows_sorted(self):
        topology = ManhattanTopology.square(4)
        strategies = {
            "broadcast": BroadcastStrategy(topology.nodes()),
            "manhattan": ManhattanStrategy(topology),
            "centralized": CentralizedStrategy(topology.nodes(), (0, 0)),
        }
        comparisons = compare_strategies(topology, strategies, PORT, pair_count=10)
        rows = comparison_table(comparisons)
        costs = [row["m(n) theory"] for row in rows]
        assert costs == sorted(costs)
        assert rows[0]["strategy"] == "centralized"

    def test_measure_strategy_fields(self):
        topology = ManhattanTopology.square(4)
        pairs = [((0, 0), (3, 3)), ((1, 1), (2, 0))]
        comparison = measure_strategy(
            topology, ManhattanStrategy(topology), PORT, pairs
        )
        assert comparison.strategy == "manhattan-row-column"
        assert comparison.measured_average_hops > 0
        assert comparison.measured_average_addressed == pytest.approx(8.0)
        assert comparison.max_cache_size >= 1

    def test_sample_pairs_deterministic(self, rng):
        import random as random_module

        first = sample_pairs([1, 2, 3], 5, random_module.Random(1))
        second = sample_pairs([1, 2, 3], 5, random_module.Random(1))
        assert first == second
        with pytest.raises(ValueError):
            sample_pairs([], 3, rng)


class TestExperimentUtils:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "empty" in format_table([])

    def test_fit_power_law_recovers_exponent(self):
        points = [(n, 3.0 * n**0.5) for n in (16, 64, 256, 1024)]
        a, b = fit_power_law(points)
        assert b == pytest.approx(0.5, abs=0.01)
        assert a == pytest.approx(3.0, rel=0.05)

    def test_fit_power_law_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 1)])
        with pytest.raises(ValueError):
            fit_power_law([(1, 1), (1, 2)])

    def test_relative_error(self):
        assert relative_error(11, 10) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")
