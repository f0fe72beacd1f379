"""Network topology generators.

One class per network family discussed in the paper: complete networks and
rings (section 2 / 2.3.5), Manhattan grids, tori and d-dimensional meshes
(3.1), binary hypercubes (3.2), cube-connected cycles (3.3), projective
planes (3.4), hierarchical gateway networks (3.5) and organically grown
trees / UUCPnet-like networks (3.6), plus the O(sqrt(n)) connected-subgraph
decomposition used by the generic implementation at the start of section 3.
"""

from .base import Topology
from .ccc import CubeConnectedCyclesTopology
from .complete import CompleteTopology, RingTopology
from .decomposition import GraphDecomposition, decompose
from .hierarchical import HierarchicalTopology
from .hypercube import HypercubeTopology, bit_strings
from .manhattan import ManhattanTopology, MeshTopology
from .projective_plane import (
    ProjectivePlaneTopology,
    incidence,
    projective_points,
)
from .tree import (
    TreeTopology,
    predicted_depth_exponential,
    predicted_depth_factorial,
)
from .uucp import UUCPNetworkGenerator, UUCPTopology

__all__ = [
    "CompleteTopology",
    "CubeConnectedCyclesTopology",
    "GraphDecomposition",
    "HierarchicalTopology",
    "HypercubeTopology",
    "ManhattanTopology",
    "MeshTopology",
    "ProjectivePlaneTopology",
    "RingTopology",
    "Topology",
    "TreeTopology",
    "UUCPNetworkGenerator",
    "UUCPTopology",
    "bit_strings",
    "decompose",
    "incidence",
    "predicted_depth_exponential",
    "predicted_depth_factorial",
    "projective_points",
]
