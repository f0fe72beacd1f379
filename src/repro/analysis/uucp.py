"""UUCPnet statistics (the Table of section 3.6).

The paper reports measurements of UUCPnet as of August 15, 1984:

* 1916 sites and 3848 edges in UUCPnet overall, of which the European part
  (EUnet) has 153 sites and 211 edges;
* a degree histogram (the paper's only measured table) dominated by
  degree-1 terminal sites, with a heavy tail up to the super-backbone site
  ``ihnp4`` of degree 641;
* named examples: ihnp4 (641), decvax (40), mcvax (45), sdcsvax (17),
  terminal sites like ``ace`` (1).

:data:`PAPER_DEGREE_TABLE` records the histogram rows legible in the
published scan.  The rows for degrees 16-24 are only partially legible; the
26 sites they cover (the difference between the total of 1916 and the
legible rows) are *not* in the dictionary, and shape comparisons in this
module account for that.  This is the reproduction's substitute for the
original site map, which is not available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from ..network.graph import Graph

#: Total number of UUCPnet sites reported by the paper (August 15, 1984).
PAPER_TOTAL_SITES = 1916
#: Total number of UUCPnet edges reported by the paper.
PAPER_TOTAL_EDGES = 3848
#: Sites / edges of the European part (EUnet).
PAPER_EUNET_SITES = 153
PAPER_EUNET_EDGES = 211

#: Degrees of the named example sites from the paper's text.
PAPER_NAMED_SITE_DEGREES = {
    "ihnp4": 641,
    "decvax": 40,
    "mcvax": 45,
    "sdcsvax": 17,
    "ace": 1,
}

#: The degree histogram rows of the paper's Table that are unambiguously
#: legible: ``degree -> number of sites``.  Degrees 16-24 are partially
#: illegible in the scan and therefore omitted (≈26 sites).
PAPER_DEGREE_TABLE: Dict[int, int] = {
    0: 25,
    1: 840,
    2: 384,
    3: 207,
    4: 115,
    5: 83,
    6: 71,
    7: 32,
    8: 29,
    9: 11,
    10: 17,
    11: 5,
    12: 7,
    13: 14,
    14: 10,
    15: 6,
    25: 3,
    27: 1,
    28: 2,
    30: 2,
    32: 2,
    33: 1,
    34: 2,
    35: 1,
    36: 2,
    37: 1,
    38: 1,
    39: 1,
    40: 1,
    42: 1,
    43: 1,
    44: 1,
    45: 3,
    46: 1,
    47: 1,
    52: 1,
    63: 2,
    70: 1,
    471: 1,
    641: 1,
}


@dataclass(frozen=True)
class DegreeProfile:
    """Shape statistics of a degree distribution."""

    site_count: int
    edge_estimate: float
    terminal_fraction: float
    low_degree_fraction: float
    max_degree: int
    mean_degree: float

    @property
    def is_heavy_tailed(self) -> bool:
        """Whether the maximum degree dwarfs the mean (backbone hierarchy)."""
        return self.mean_degree > 0 and self.max_degree >= 10 * self.mean_degree


def profile_from_histogram(histogram: Mapping[int, int]) -> DegreeProfile:
    """Shape statistics of a ``degree -> count`` histogram."""
    if not histogram:
        raise ValueError("histogram must not be empty")
    sites = sum(histogram.values())
    degree_sum = sum(degree * count for degree, count in histogram.items())
    terminal = histogram.get(1, 0)
    low = sum(count for degree, count in histogram.items() if degree <= 3)
    return DegreeProfile(
        site_count=sites,
        edge_estimate=degree_sum / 2.0,
        terminal_fraction=terminal / sites,
        low_degree_fraction=low / sites,
        max_degree=max(degree for degree, count in histogram.items() if count > 0),
        mean_degree=degree_sum / sites,
    )


def paper_profile() -> DegreeProfile:
    """The shape profile of the paper's (legible) UUCPnet table."""
    return profile_from_histogram(PAPER_DEGREE_TABLE)


def graph_profile(graph: Graph) -> DegreeProfile:
    """The shape profile of a synthetic graph's degree distribution."""
    return profile_from_histogram(graph.degree_histogram())


def shape_similarity(
    candidate: DegreeProfile, reference: DegreeProfile
) -> Dict[str, float]:
    """Compare two degree profiles on the shape features the paper
    emphasises.

    Returns per-feature absolute differences of: terminal-site fraction,
    low-degree (≤3) fraction, mean degree, and log10 of the max degree
    (heavy-tail presence).  Small values mean similar shapes.
    """
    return {
        "terminal_fraction": abs(
            candidate.terminal_fraction - reference.terminal_fraction
        ),
        "low_degree_fraction": abs(
            candidate.low_degree_fraction - reference.low_degree_fraction
        ),
        "mean_degree": abs(candidate.mean_degree - reference.mean_degree),
        "log_max_degree": abs(
            math.log10(max(candidate.max_degree, 1))
            - math.log10(max(reference.max_degree, 1))
        ),
    }
