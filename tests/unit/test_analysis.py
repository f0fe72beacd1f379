"""Unit tests for the analysis helpers (the paper's claims are the table
in ``repro.analysis.paper``, checked by ``test_paper_claims.py``)."""

import pytest

from repro.analysis import (
    PAPER_DEGREE_TABLE,
    PAPER_NAMED_SITE_DEGREES,
    PAPER_TOTAL_EDGES,
    PAPER_TOTAL_SITES,
    fit_power_law,
    format_table,
    optimal_split,
    paper_profile,
    profile_from_histogram,
)


class TestTradeoff:
    def test_optimal_split_balanced(self):
        split = optimal_split(100, ratio=1.0)
        assert split.post_size * split.query_size >= 100
        assert split.post_size + split.query_size <= 21

    def test_optimal_split_skews_with_ratio(self):
        # Locates 16x more frequent than posts: queries should get cheaper.
        balanced = optimal_split(256, ratio=1.0)
        skewed = optimal_split(256, ratio=16.0)
        assert skewed.query_size < balanced.query_size
        assert skewed.post_size > balanced.post_size
        assert skewed.post_size * skewed.query_size >= 256

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
