"""E1 — Section 2.3.1, Examples 1-6: the six printed rendezvous matrices.

Regenerates all six example matrices (broadcast, sweep, centralized, truly
distributed, hierarchical, binary 3-cube) on the paper's own node numbering
and verifies them cell by cell against the printed figures, timing the full
regeneration.
"""

from repro.core.rendezvous import RendezvousMatrix
from repro.strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    HypercubeStrategy,
    SupervisorHierarchyStrategy,
    SweepStrategy,
)
from repro.topologies import HypercubeTopology

NODES = list(range(1, 10))

EXAMPLE4_EXPECTED = [
    [1, 1, 1, 2, 2, 2, 3, 3, 3],
    [1, 1, 1, 2, 2, 2, 3, 3, 3],
    [1, 1, 1, 2, 2, 2, 3, 3, 3],
    [4, 4, 4, 5, 5, 5, 6, 6, 6],
    [4, 4, 4, 5, 5, 5, 6, 6, 6],
    [4, 4, 4, 5, 5, 5, 6, 6, 6],
    [7, 7, 7, 8, 8, 8, 9, 9, 9],
    [7, 7, 7, 8, 8, 8, 9, 9, 9],
    [7, 7, 7, 8, 8, 8, 9, 9, 9],
]

EXAMPLE5_EXPECTED = [
    [7, 7, 7, 9, 9, 9, 9, 9, 9],
    [7, 7, 7, 9, 9, 9, 9, 9, 9],
    [7, 7, 7, 9, 9, 9, 9, 9, 9],
    [9, 9, 9, 8, 8, 8, 9, 9, 9],
    [9, 9, 9, 8, 8, 8, 9, 9, 9],
    [9, 9, 9, 8, 8, 8, 9, 9, 9],
    [9, 9, 9, 9, 9, 9, 9, 9, 9],
    [9, 9, 9, 9, 9, 9, 9, 9, 9],
    [9, 9, 9, 9, 9, 9, 9, 9, 9],
]


def build_all_example_matrices():
    """Regenerate the six example matrices and return their grids."""
    grids = {}
    grids["broadcast"] = RendezvousMatrix.from_strategy(
        BroadcastStrategy(NODES), NODES
    ).singleton_grid()
    grids["sweep"] = RendezvousMatrix.from_strategy(
        SweepStrategy(NODES), NODES
    ).singleton_grid()
    grids["centralized"] = RendezvousMatrix.from_strategy(
        CentralizedStrategy(NODES, centre=3), NODES
    ).singleton_grid()
    grids["truly-distributed"] = RendezvousMatrix.from_strategy(
        CheckerboardStrategy(NODES, order=NODES), NODES
    ).singleton_grid()
    hierarchy = SupervisorHierarchyStrategy.example5()
    grids["hierarchical"] = [
        [hierarchy.lowest_common_supervisor(server, client) for client in NODES]
        for server in NODES
    ]
    cube = HypercubeTopology(3)
    cube_nodes = [format(i, "03b") for i in range(8)]
    cube_matrix = RendezvousMatrix.from_strategy(
        HypercubeStrategy(cube, server_prefix_bits=1), cube_nodes
    )
    grids["binary-3-cube"] = [
        [next(iter(cube_matrix.entry(server, client))) for client in cube_nodes]
        for server in cube_nodes
    ]
    return grids


def test_bench_e01_example_matrices():
    grids = build_all_example_matrices()

    # Example 1: row i constant i.
    assert grids["broadcast"] == [[i] * 9 for i in NODES]
    # Example 2: column j constant j.
    assert grids["sweep"] == [list(NODES) for _ in NODES]
    # Example 3: everything at the centre node 3.
    assert grids["centralized"] == [[3] * 9 for _ in NODES]
    # Example 4: the checkerboard exactly as printed.
    assert grids["truly-distributed"] == EXAMPLE4_EXPECTED
    # Example 5: lowest common supervisor, exactly as printed.
    assert grids["hierarchical"] == EXAMPLE5_EXPECTED
    # Example 6: entry = server prefix bit + client suffix bits.
    cube_nodes = [format(i, "03b") for i in range(8)]
    assert grids["binary-3-cube"] == [
        [server[0] + client[1:] for client in cube_nodes] for server in cube_nodes
    ]
