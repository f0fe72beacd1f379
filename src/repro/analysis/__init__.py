"""Analysis and experiment tooling.

Summaries of rendezvous matrices, post/query trade-off curves, UUCPnet
degree statistics, tree-depth models, the cross-strategy comparison harness
and table-formatting/scaling-fit helpers used by the examples and the
benchmark suite.
"""

from .comparison import (
    StrategyComparison,
    compare_strategies,
    comparison_table,
    measure_strategy,
    sample_pairs,
)
from .experiment import (
    fit_power_law,
    format_table,
    render_matrix_report,
    relative_error,
)
from .matrix_stats import MatrixSummary, summarize, summary_as_dict
from .tradeoff import WeightedSplit, balanced_cost, optimal_split
from .tree_models import (
    DepthObservation,
    depth_halving_ratio,
    observe_exponential_trees,
    observe_factorial_trees,
)
from .uucp import (
    PAPER_DEGREE_TABLE,
    PAPER_EUNET_EDGES,
    PAPER_EUNET_SITES,
    PAPER_NAMED_SITE_DEGREES,
    PAPER_TOTAL_EDGES,
    PAPER_TOTAL_SITES,
    DegreeProfile,
    graph_profile,
    paper_profile,
    profile_from_histogram,
    shape_similarity,
)

__all__ = [
    "DegreeProfile",
    "DepthObservation",
    "MatrixSummary",
    "PAPER_DEGREE_TABLE",
    "PAPER_EUNET_EDGES",
    "PAPER_EUNET_SITES",
    "PAPER_NAMED_SITE_DEGREES",
    "PAPER_TOTAL_EDGES",
    "PAPER_TOTAL_SITES",
    "StrategyComparison",
    "WeightedSplit",
    "balanced_cost",
    "compare_strategies",
    "comparison_table",
    "depth_halving_ratio",
    "fit_power_law",
    "format_table",
    "render_matrix_report",
    "graph_profile",
    "measure_strategy",
    "observe_exponential_trees",
    "observe_factorial_trees",
    "optimal_split",
    "paper_profile",
    "profile_from_histogram",
    "relative_error",
    "sample_pairs",
    "shape_similarity",
    "summarize",
    "summary_as_dict",
]
