"""Concrete match-making strategies.

Every locate method described in the paper:

* Examples 1-4 (broadcast, sweep, centralized, checkerboard) —
  :mod:`~repro.strategies.elementary`, :mod:`~repro.strategies.truly_distributed`;
* Example 5 and tree networks — :mod:`~repro.strategies.hierarchy`;
* Example 6 / section 3.2 hypercubes — :mod:`~repro.strategies.hypercube`;
* section 3 generic connected networks — :mod:`~repro.strategies.subgraph`;
* section 3.1 Manhattan grids and meshes — :mod:`~repro.strategies.manhattan`;
* section 3.3 cube-connected cycles — :mod:`~repro.strategies.ccc`;
* section 3.4 projective planes — :mod:`~repro.strategies.projective`;
* section 3.5 hierarchical gateway networks — :mod:`~repro.strategies.gateway`;
* section 4 Lighthouse Locate — :mod:`~repro.strategies.lighthouse`;
* section 5 Hash Locate — :mod:`~repro.strategies.hash_locate`.
"""

from .base import TopologyStrategy, UniverseStrategy
from .ccc import CubeConnectedCyclesStrategy
from .elementary import (
    BroadcastStrategy,
    CentralizedStrategy,
    FullStrategy,
    SweepStrategy,
)
from .gateway import HierarchicalGatewayStrategy
from .hash_locate import HashLocateStrategy, RehashingLocator
from .hierarchy import SupervisorHierarchyStrategy, TreePathStrategy
from .hypercube import HypercubeStrategy
from .lighthouse import (
    DoublingSchedule,
    LighthouseLocate,
    LighthouseResult,
    RulerSchedule,
)
from .local_hash import ScopedHashStrategy
from .manhattan import ManhattanStrategy, MeshSliceStrategy
from .projective import ProjectivePlaneStrategy
from .subgraph import SubgraphDecompositionStrategy
from .truly_distributed import CheckerboardStrategy

__all__ = [
    "BroadcastStrategy",
    "CentralizedStrategy",
    "CheckerboardStrategy",
    "CubeConnectedCyclesStrategy",
    "DoublingSchedule",
    "FullStrategy",
    "HashLocateStrategy",
    "HierarchicalGatewayStrategy",
    "HypercubeStrategy",
    "LighthouseLocate",
    "LighthouseResult",
    "ManhattanStrategy",
    "MeshSliceStrategy",
    "ProjectivePlaneStrategy",
    "RehashingLocator",
    "RulerSchedule",
    "ScopedHashStrategy",
    "SubgraphDecompositionStrategy",
    "SupervisorHierarchyStrategy",
    "SweepStrategy",
    "TopologyStrategy",
    "TreePathStrategy",
    "UniverseStrategy",
]
