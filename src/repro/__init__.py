"""Distributed match-making for processes in computer networks.

A complete, self-contained reproduction of S.J. Mullender & P.M.B. Vitányi,
"Distributed Match-Making for Processes in Computer Networks" (PODC 1985):
the Shotgun/Hash/Lighthouse locate algorithms, the rendezvous-matrix theory
with its lower and upper bounds, the topology-specific name servers of
section 3, and the Amoeba-style service model they were designed for — all
running on a pure-Python store-and-forward network simulator.

Quick start::

    from repro import CompleteTopology, CheckerboardStrategy, MatchMaker, Port

    topology = CompleteTopology(64)
    strategy = CheckerboardStrategy(topology.nodes())
    network = topology.build_network()
    matchmaker = MatchMaker(network, strategy)

    port = Port("printer")
    matchmaker.register_server(5, port)
    result = matchmaker.locate(41, port)
    assert result.found
"""

from .core import (
    Address,
    FunctionalStrategy,
    MatchMaker,
    MatchMakingError,
    MatchMakingStrategy,
    MatchResult,
    Port,
    PostRecord,
    RendezvousMatrix,
    StrategyError,
    bounds,
    probabilistic,
    robustness,
)
# After .core: analysis.uucp imports network.graph, whose package imports
# back into core.
from .analysis import format_table
from .network import Graph, Network, complete_graph
from .processes import ClientProcess, DistributedSystem, ServerProcess
from .strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    CubeConnectedCyclesStrategy,
    HashLocateStrategy,
    HierarchicalGatewayStrategy,
    HypercubeStrategy,
    LighthouseLocate,
    ManhattanStrategy,
    MeshSliceStrategy,
    ProjectivePlaneStrategy,
    ScopedHashStrategy,
    SubgraphDecompositionStrategy,
    SupervisorHierarchyStrategy,
    SweepStrategy,
    TreePathStrategy,
)
from .codec import decode, encode
from .simtime import LinkTiming, TimeModelSpec
from .workload import (
    ArrivalSpec,
    ChurnSpec,
    PopularitySpec,
    ScenarioSpec,
    Trace,
    WorkloadDriver,
    WorkloadMetrics,
    WorkloadResult,
    compare_under_load,
    replay_trace,
    run_scenario,
)
from .topologies import (
    CompleteTopology,
    CubeConnectedCyclesTopology,
    HierarchicalTopology,
    HypercubeTopology,
    ManhattanTopology,
    MeshTopology,
    ProjectivePlaneTopology,
    RingTopology,
    TreeTopology,
    UUCPNetworkGenerator,
    decompose,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "ArrivalSpec",
    "BroadcastStrategy",
    "CentralizedStrategy",
    "CheckerboardStrategy",
    "ChurnSpec",
    "ClientProcess",
    "CompleteTopology",
    "CubeConnectedCyclesStrategy",
    "CubeConnectedCyclesTopology",
    "DistributedSystem",
    "FunctionalStrategy",
    "Graph",
    "HashLocateStrategy",
    "HierarchicalGatewayStrategy",
    "HierarchicalTopology",
    "HypercubeStrategy",
    "HypercubeTopology",
    "LighthouseLocate",
    "LinkTiming",
    "ManhattanStrategy",
    "ManhattanTopology",
    "MatchMaker",
    "MatchMakingError",
    "MatchMakingStrategy",
    "MatchResult",
    "MeshSliceStrategy",
    "MeshTopology",
    "Network",
    "PopularitySpec",
    "Port",
    "PostRecord",
    "ProjectivePlaneStrategy",
    "ProjectivePlaneTopology",
    "RendezvousMatrix",
    "RingTopology",
    "ScenarioSpec",
    "ScopedHashStrategy",
    "ServerProcess",
    "StrategyError",
    "SubgraphDecompositionStrategy",
    "SupervisorHierarchyStrategy",
    "SweepStrategy",
    "TimeModelSpec",
    "Trace",
    "TreePathStrategy",
    "TreeTopology",
    "UUCPNetworkGenerator",
    "WorkloadDriver",
    "WorkloadMetrics",
    "WorkloadResult",
    "bounds",
    "compare_under_load",
    "complete_graph",
    "decode",
    "decompose",
    "encode",
    "format_table",
    "probabilistic",
    "replay_trace",
    "robustness",
    "run_scenario",
    "__version__",
]
