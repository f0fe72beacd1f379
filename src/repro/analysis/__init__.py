"""Analysis tooling.

Table formatting and the matrix-sweep report text, the scaling fit, the
(M3') post/query split and the UUCPnet degree statistics of section 3.6.
The paper's claims, each with its measurement, are the table in
:mod:`repro.analysis.paper` (``python -m repro paper``), imported only by
that command.
"""

from .experiment import fit_power_law, format_table, render_matrix_report
from .tradeoff import WeightedSplit, optimal_split
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
    "PAPER_DEGREE_TABLE",
    "PAPER_EUNET_EDGES",
    "PAPER_EUNET_SITES",
    "PAPER_NAMED_SITE_DEGREES",
    "PAPER_TOTAL_EDGES",
    "PAPER_TOTAL_SITES",
    "WeightedSplit",
    "fit_power_law",
    "format_table",
    "graph_profile",
    "optimal_split",
    "paper_profile",
    "profile_from_histogram",
    "render_matrix_report",
    "shape_similarity",
]
