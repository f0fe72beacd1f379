"""E5 — Section 3.1: Manhattan grids, tori and d-dimensional meshes.

Row/column match-making on p×q grids: m(n) = p + q (= 2·sqrt(n) for square
grids), cache size sqrt(n), the printed 9-node matrix, torus wrap-around, and
the d-dimensional generalization m(n) = 2·n^((d-1)/d).
"""

import math

from repro.analysis import fit_power_law
from repro.core.matchmaker import MatchMaker
from repro.core.rendezvous import RendezvousMatrix
from repro.core.types import Port
from repro.network.simulator import Network
from repro.strategies import ManhattanStrategy, MeshSliceStrategy
from repro.topologies import ManhattanTopology, MeshTopology

PORT = Port("manhattan-bench")


def run_manhattan_experiment():
    results = {}

    # Square grids: theoretical cost and cache growth with n.
    scaling = []
    for side in (3, 5, 7, 9, 11):
        grid = ManhattanTopology.square(side)
        strategy = ManhattanStrategy(grid)
        matrix = RendezvousMatrix.from_strategy(strategy, grid.nodes())
        network = Network(grid.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(network, strategy)
        for node in grid.nodes():
            matchmaker.register_server(node, PORT, server_id=f"s@{node}")
        scaling.append(
            {
                "n": grid.node_count,
                "m(n)": matrix.average_cost(),
                "max_cache": network.max_cache_size(),
            }
        )
    results["square_scaling"] = scaling

    # Rectangular grid: m(n) = p + q.
    rect = ManhattanTopology(4, 9)
    rect_matrix = RendezvousMatrix.from_strategy(ManhattanStrategy(rect), rect.nodes())
    results["rectangular"] = {"p": 4, "q": 9, "m(n)": rect_matrix.average_cost()}

    # Torus: wrap-around version still works and costs the same addressed
    # nodes, with smaller routing overhead.
    grid = ManhattanTopology.square(6)
    torus = ManhattanTopology.square(6, wrap=True)
    grid_net = Network(grid.graph, delivery_mode="multicast")
    torus_net = Network(torus.graph, delivery_mode="multicast")
    grid_mm = MatchMaker(grid_net, ManhattanStrategy(grid))
    torus_mm = MatchMaker(torus_net, ManhattanStrategy(torus))
    results["torus"] = {
        "grid_hops": grid_mm.match_instance((0, 0), (5, 5), PORT).match_messages,
        "torus_hops": torus_mm.match_instance((0, 0), (5, 5), PORT).match_messages,
    }

    # d-dimensional meshes: m(n) = 2 * n^((d-1)/d).
    mesh_rows = []
    for d, side in ((2, 6), (3, 4), (4, 3)):
        mesh = MeshTopology([side] * d)
        matrix = RendezvousMatrix.from_strategy(MeshSliceStrategy(mesh), mesh.nodes())
        n = mesh.node_count
        mesh_rows.append(
            {
                "d": d,
                "n": n,
                "m(n)": matrix.average_cost(),
                "expected": 2 * n ** ((d - 1) / d),
            }
        )
    results["meshes"] = mesh_rows
    return results


def test_bench_e05_manhattan_networks():
    results = run_manhattan_experiment()

    # m(n) = 2*sqrt(n) on square grids, and the cost scales as n^0.5.
    for row in results["square_scaling"]:
        assert row["m(n)"] == 2 * math.sqrt(row["n"])
        # Cache claim: size sqrt(n) suffices (one posting per server in the
        # rendezvous node's row).
        assert row["max_cache"] <= math.isqrt(row["n"]) + 1
    _, exponent = fit_power_law(
        [(row["n"], row["m(n)"]) for row in results["square_scaling"]]
    )
    assert abs(exponent - 0.5) < 0.02

    # Rectangular: m(n) = p + q.
    assert results["rectangular"]["m(n)"] == 13

    # Torus wrap-around never costs more hops than the open grid.
    assert results["torus"]["torus_hops"] <= results["torus"]["grid_hops"]

    # d-dimensional meshes hit 2*n^((d-1)/d) exactly for equal sides.
    for row in results["meshes"]:
        assert abs(row["m(n)"] - row["expected"]) < 1e-9
