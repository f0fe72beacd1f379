"""The paper as one table: every claim, the measurement behind it, the result.

``CLAIMS`` holds one row per result of Mullender & Vitányi this package
reproduces — Examples 1–6, Propositions 1–4, the 2·sqrt(n) threshold, the
section-3 closed forms and the Lighthouse/Hash claims of sections 4–5 —
then the ``X`` rows: what the workload engine, the fault regimes, the time
model and two ablations built around the paper find.  A row is
``(id, section, statement, measure, expected, relation, tolerance)``.
``measure`` is ``(experiment, key)``, and the row holds when
``experiment()[key]`` stands in ``relation`` (``==``, ``<=``, ``>=``, ``<``,
``>``) to ``expected``, within ``tolerance`` where one is given.  Each
experiment runs once per process however many rows read it, and importing
this module runs none of them.

``python -m repro paper`` prints :func:`render`, the ``X`` rows as a
section of their own, and exits 1 when a row fails; the tier-1 suite
checks the same rows, one test each.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import statistics
from dataclasses import replace
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from ..core import bounds, probabilistic, robustness
from ..core.matchmaker import MatchMaker
from ..core.rendezvous import RendezvousMatrix
from ..core.strategy import FunctionalStrategy
from ..core.types import Port
from ..network.simulator import Network
from ..network.stats import POST
from ..obs.attr import rank_contributors, tail_counts
from ..simtime import LinkTiming, TimeModelSpec
from ..strategies import (
    BroadcastStrategy,
    CentralizedStrategy,
    CheckerboardStrategy,
    CubeConnectedCyclesStrategy,
    DoublingSchedule,
    HashLocateStrategy,
    HierarchicalGatewayStrategy,
    HypercubeStrategy,
    LighthouseLocate,
    ManhattanStrategy,
    MeshSliceStrategy,
    ProjectivePlaneStrategy,
    RehashingLocator,
    RulerSchedule,
    ScopedHashStrategy,
    SupervisorHierarchyStrategy,
    SweepStrategy,
    TreePathStrategy,
)
from ..topologies import (
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
    predicted_depth_exponential,
    predicted_depth_factorial,
)
from ..workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
    compare_under_load,
    run_matrix,
    run_scenario,
)
from ..workload.spec import STRATEGIES, build_strategy
from .experiment import fit_power_law, format_table
from .tradeoff import optimal_split
from .uucp import (
    PAPER_TOTAL_EDGES,
    PAPER_TOTAL_SITES,
    graph_profile,
    paper_profile,
    shape_similarity,
)

PORT = Port("paper")
NINE = list(range(1, 10))

#: The figures as printed in sections 2.3.1 and 3.1: one string per server
#: row, one digit per client column.
EXAMPLE_1 = tuple(str(i) * 9 for i in NINE)
EXAMPLE_2 = ("123456789",) * 9
EXAMPLE_3 = ("333333333",) * 9
EXAMPLE_4 = ("111222333",) * 3 + ("444555666",) * 3 + ("777888999",) * 3
EXAMPLE_5 = ("777999999",) * 3 + ("999888999",) * 3 + ("999999999",) * 3
MANHATTAN_9 = ("123123123",) * 3 + ("456456456",) * 3 + ("789789789",) * 3
#: Section 4's ruler sequence: the client's i-th beam is that many base
#: lengths long.
RULER = (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5)


def _mismatches(grid, printed) -> int:
    """Cells where ``grid`` differs from the printed figure; a missing or
    extra cell counts too."""
    return sum(
        str(cell) != str(want)
        for row, printed_row in itertools.zip_longest(grid, printed, fillvalue=())
        for cell, want in itertools.zip_longest(row, printed_row)
    )


def _matrix(strategy, nodes) -> RendezvousMatrix:
    return RendezvousMatrix.from_strategy(strategy, nodes, port=PORT)


def _server_everywhere(topology, strategy) -> Network:
    """The network once every node hosts one server: its caches are the
    paper's cache-size claims."""
    network = Network(topology.graph, delivery_mode="multicast")
    matchmaker = MatchMaker(network, strategy)
    for node in topology.nodes():
        matchmaker.register_server(node, PORT, server_id=f"s@{node}")
    return network


def _pairs(nodes: Sequence[Any], count: int, seed: int) -> List[Tuple[Any, Any]]:
    rng = random.Random(seed)
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


def _mean_hops(topology, strategy, pairs) -> float:
    """Mean message passes of a whole match (post, query, replies) over
    ``pairs`` on the real topology, routing overhead included."""
    network = Network(topology.graph, delivery_mode="multicast")
    matchmaker = MatchMaker(network, strategy)
    return statistics.fmean(
        matchmaker.match_instance(server, client, PORT).match_messages
        for server, client in pairs
    )


# -- experiments: each runs once per process -------------------------------------

@functools.cache
def examples() -> Dict[str, Any]:
    """Section 2.3.1: Examples 1–6 on the paper's own numbering, and the
    9-node grid of section 3.1."""
    def grid(strategy, nodes=NINE):
        return _matrix(strategy, nodes).singleton_grid()

    hierarchy = SupervisorHierarchyStrategy.example5()
    cube = HypercubeStrategy(HypercubeTopology(3), server_prefix_bits=1)
    bits = [format(i, "03b") for i in range(8)]
    square = ManhattanTopology(3, 3)
    broadcast, sweep = BroadcastStrategy(NINE), SweepStrategy(NINE)
    centralized = CentralizedStrategy(NINE, centre=3)
    checkerboard = CheckerboardStrategy(NINE, order=NINE)
    return {
        "broadcast": _mismatches(grid(broadcast), EXAMPLE_1),
        "sweep": _mismatches(grid(sweep), EXAMPLE_2),
        "centralized": _mismatches(grid(centralized), EXAMPLE_3),
        "checkerboard": _mismatches(grid(checkerboard), EXAMPLE_4),
        "hierarchy": _mismatches(
            [[hierarchy.lowest_common_supervisor(s, c) for c in NINE] for s in NINE],
            EXAMPLE_5,
        ),
        "designated_outside": sum(
            hierarchy.lowest_common_supervisor(s, c) not in hierarchy.rendezvous_set(s, c)
            for s in NINE for c in NINE
        ),
        "cube": _mismatches(grid(cube, bits), [[s[0] + c[1:] for c in bits] for s in bits]),
        "cube_post_000": " ".join(sorted(cube.post_set("000"))),
        "cube_query_101": " ".join(sorted(cube.query_set("101"))),
        "prop2_slack": min(
            measured - bound for measured, bound in (
                bounds.verify_proposition2(_matrix(strategy, NINE))
                for strategy in (broadcast, sweep, centralized, checkerboard, hierarchy)
            )
        ),
        # Row-major (r, c) order numbers the grid 1..9 as the figure does.
        "manhattan_9": _mismatches(
            [[3 * r + c + 1 for r, c in row]
             for row in grid(ManhattanStrategy(square), sorted(square.nodes()))],
            MANHATTAN_9,
        ),
    }


@functools.cache
def random_sets() -> Dict[str, Any]:
    """Section 2.2: random P and Q on n = 144, 1500 trials per (p, q)."""
    rng = random.Random(2024)
    runs = [
        probabilistic.monte_carlo(p, q, 144, trials=1500, rng=rng)
        for p, q in ((4, 4), (6, 6), (12, 12), (12, 24), (24, 24))
    ]
    return {
        "mean_error": max(abs(r.mean_intersection - r.expected_intersection) for r in runs),
        "hit_error": max(abs(r.hit_fraction - r.predicted_hit_probability) for r in runs),
        "threshold": probabilistic.minimum_sum_for_expected_match(144),
        "below": runs[0].expected_intersection,
        "at": runs[2].expected_intersection,
        "above": runs[3].expected_intersection,
    }


@functools.cache
def lower_bounds() -> Dict[str, Any]:
    """Section 2.3.2: every universe strategy on n = 64 against
    Propositions 1 and 2."""
    universe = list(range(64))
    matrices = {
        name: _matrix(factory(universe), universe)
        for name, (required, factory) in STRATEGIES.items()
        if required is None
    }
    prop2 = {name: bounds.verify_proposition2(m) for name, m in matrices.items()}
    prop1 = [bounds.verify_proposition1(m) for m in matrices.values()]
    return {
        "prop2_slack": min(measured - bound for measured, bound in prop2.values()),
        "prop1_slack": min(measured - bound for measured, bound in prop1),
        "checkerboard_bound": prop2["checkerboard"][1],
        "checkerboard": prop2["checkerboard"][0],
        "centralized_bound": prop2["centralized"][1],
        "centralized": prop2["centralized"][0],
        "broadcast": prop2["broadcast"][0],
        "sweep": prop2["sweep"][0],
        "full": prop2["full"][0],
        "most_inefficient": bounds.most_inefficient_cost(64),
    }


@functools.cache
def upper_bounds() -> Dict[str, Any]:
    """Section 2.3.4: the checkerboard construction and the 4n-lift."""
    matrices = {n: bounds.checkerboard_matrix(list(range(n))) for n in (16, 36, 64, 100, 144)}
    base = bounds.checkerboard_matrix(list(range(25)))
    lifted = bounds.lift_matrix(base)
    return {
        "not_total": sum(not m.is_total() for m in matrices.values()),
        **{f"cost_{n}": m.average_cost() for n, m in matrices.items()},
        "product_error": max(abs(m.average_product() - n) for n, m in matrices.items()),
        "lift_n": lifted.n,
        "lift_ratio": lifted.average_cost() / base.average_cost(),
    }


@functools.cache
def grids() -> Dict[str, Any]:
    """Section 3.1: row/column match-making on grids, tori and meshes."""
    scaling: List[Tuple[int, float]] = []
    cache_excess: List[int] = []
    for side in (3, 5, 7, 9, 11):
        grid = ManhattanTopology.square(side)
        strategy = ManhattanStrategy(grid)
        n = grid.node_count
        scaling.append((n, _matrix(strategy, grid.nodes()).average_cost()))
        cache_excess.append(_server_everywhere(grid, strategy).max_cache_size() - math.isqrt(n))
    rect = ManhattanTopology(4, 9)
    grid, torus = ManhattanTopology.square(6), ManhattanTopology.square(6, wrap=True)
    corners = [((0, 0), (5, 5))]
    meshes = [MeshTopology([side] * d) for d, side in ((2, 6), (3, 4), (4, 3))]
    return {
        "square_error": max(abs(cost - 2 * math.sqrt(n)) for n, cost in scaling),
        "rect": _matrix(ManhattanStrategy(rect), rect.nodes()).average_cost(),
        "cache_excess": max(cache_excess),
        "exponent": fit_power_law(scaling)[1],
        "torus_ratio": _mean_hops(torus, ManhattanStrategy(torus), corners)
        / _mean_hops(grid, ManhattanStrategy(grid), corners),
        "mesh_error": max(
            abs(
                _matrix(MeshSliceStrategy(mesh), mesh.nodes()).average_cost()
                - 2 * mesh.node_count ** ((mesh.dimensions - 1) / mesh.dimensions)
            )
            for mesh in meshes
        ),
    }


@functools.cache
def topology_aware() -> Dict[str, Any]:
    """Section 3: per network family, mean hops of the family's own
    strategy over the checkerboard's, on the same 40 pairs."""
    families = {
        "manhattan": (ManhattanTopology.square(6), ManhattanStrategy),
        "hypercube": (HypercubeTopology(6), HypercubeStrategy),
        "ccc": (CubeConnectedCyclesTopology(3), CubeConnectedCyclesStrategy),
        "projective": (ProjectivePlaneTopology(5), ProjectivePlaneStrategy),
        "hierarchy": (HierarchicalTopology.uniform(4, 3), HierarchicalGatewayStrategy),
    }
    ratios: Dict[str, float] = {}
    for name, (topology, strategy) in families.items():
        pairs = _pairs(topology.nodes(), 40, seed=7)
        ratios[name] = _mean_hops(topology, strategy(topology), pairs) / _mean_hops(
            topology, CheckerboardStrategy(topology.nodes()), pairs
        )
    return ratios


@functools.cache
def cubes() -> Dict[str, Any]:
    """Section 3.2: the d/2-subcube strategy and its eps·d splits."""
    rng = random.Random(7)
    cost_error, single_misses, hop_ratio = 0.0, 0, 0.0
    for d in (4, 6, 8):
        cube = HypercubeTopology(d)
        strategy = HypercubeStrategy(cube)
        nodes = cube.nodes()
        matrix = _matrix(strategy, nodes)
        optimum = 2 * math.sqrt(cube.node_count)
        cost_error = max(cost_error, abs(matrix.average_cost() - optimum))
        single_misses += sum(
            len(matrix.entry(s, c)) != 1 for s in nodes[:8] for c in nodes[:8]
        )
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(20)]
        hop_ratio = max(hop_ratio, _mean_hops(cube, strategy, pairs) / optimum)
    six = HypercubeTopology(6)
    totals = {
        bits: HypercubeStrategy(six, server_prefix_bits=bits).addressed_nodes()
        for bits in range(1, 6)
    }
    best = min(totals, key=totals.__getitem__)
    return {
        "cost_error": cost_error,
        "single_misses": single_misses,
        "hop_ratio": hop_ratio,
        "best_bits": best,
        "best_total": totals[best],
        "total_1": totals[1],
        "total_5": totals[5],
    }


@functools.cache
def ccc() -> Dict[str, Any]:
    """Section 3.3: the tuned subcube strategy on CCC of orders 3–5."""
    rows = []  # (d, n, #P + #Q, fullest cache, total)
    for d in (3, 4, 5):
        topology = CubeConnectedCyclesTopology(d)
        strategy = CubeConnectedCyclesStrategy(topology)
        rows.append((
            d, topology.node_count, sum(strategy.expected_costs()),
            _server_everywhere(topology, strategy).max_cache_size(),
            _matrix(strategy, topology.nodes()).is_total(),
        ))
    return {
        "not_total": sum(not total for *_, total in rows),
        "cost_ratio": max(cost / math.sqrt(n * d) for d, n, cost, _, _ in rows),
        "flat_ratio": max(cost / n for _, n, cost, _, _ in rows),
        "cache_excess": max(cache - 3 * math.sqrt(n / d) for d, n, _, cache, _ in rows),
        "growth": (rows[-1][2] / rows[0][2]) / (rows[-1][1] / rows[0][1]),
    }


@functools.cache
def planes() -> Dict[str, Any]:
    """Section 3.4: lines of PG(2, k) for k = 2, 3, 5, 7."""
    out = {"not_total": 0, "line_error": 0.0, "sqrt_error": 0.0,
           "mean_cache_excess": -math.inf, "cache_share": 0.0, "lost": 0}
    for k in (2, 3, 5, 7):
        plane = ProjectivePlaneTopology(k)
        plane.verify_axioms()
        strategy = ProjectivePlaneStrategy(plane)
        n = plane.node_count
        matrix = _matrix(strategy, plane.nodes())
        cost = matrix.average_cost()
        network = _server_everywhere(plane, strategy)
        out["not_total"] += not matrix.is_total()
        out["line_error"] = max(out["line_error"], abs(cost - 2 * (k + 1)))
        out["sqrt_error"] = max(out["sqrt_error"], abs(cost - 2 * math.sqrt(n)))
        out["mean_cache_excess"] = max(
            out["mean_cache_excess"], sum(network.cache_sizes().values()) / n - (k + 1)
        )
        out["cache_share"] = max(out["cache_share"], network.max_cache_size() / n)
        # Crash every point of a line that misses both ends and their
        # rendezvous point: the pair must still meet.
        server, client = plane.points[0], plane.points[-1]
        spared = {server, client, strategy.rendezvous_point(server, client)}
        doomed = next(
            line for line in plane.lines if not spared & set(plane.points_on_line(line))
        )
        crashed = Network(plane.graph, delivery_mode="multicast")
        matchmaker = MatchMaker(crashed, strategy)
        matchmaker.register_server(server, PORT)
        for node in plane.points_on_line(doomed):
            crashed.crash_node(node)
        out["lost"] += not matchmaker.locate(client, PORT).found
    return out


@functools.cache
def hierarchies() -> Dict[str, Any]:
    """Section 3.5: gateway hierarchies of 64 nodes, 1 to 6 levels deep."""
    rows = []  # (n, m(n), Σ 2·sqrt(n_i), fullest cache, total)
    for arity, levels in ((64, 1), (8, 2), (4, 3), (2, 6)):
        topology = HierarchicalTopology.uniform(arity, levels)
        strategy = HierarchicalGatewayStrategy(topology)
        matrix = _matrix(strategy, topology.nodes())
        rows.append((
            topology.node_count, matrix.average_cost(), levels * 2 * math.sqrt(arity),
            _server_everywhere(topology, strategy).max_cache_size(), matrix.is_total(),
        ))
    costs = [cost for _, cost, _, _, _ in rows]
    flat, deepest = rows[0], rows[-1]
    return {
        "not_total": sum(not total for *_, total in rows),
        "sizes": sorted({n for n, *_ in rows}),
        "level_excess": max(cost - per_level for _, cost, per_level, _, _ in rows),
        "flat": flat[1],
        "deep_ratio": deepest[1] / flat[1],
        "deepest": deepest[1],
        "cache_ratio": deepest[3] / flat[3],
        "rises": sum(b > a for a, b in zip(costs, costs[1:])),
    }


@functools.cache
def organic() -> Dict[str, Any]:
    """Section 3.6: the UUCPnet table, a synthetic 800-site network grown
    like it, the tree-depth formulas and the path-to-root name server."""
    paper = paper_profile()
    topology = UUCPNetworkGenerator(preferential_bias=6.0).generate(800, seed=1984)
    ours = graph_profile(topology.graph)
    differences = shape_similarity(ours, paper)
    factorial = {levels: TreeTopology.factorial_profile(levels, eps=0.0) for levels in (3, 4, 5)}
    exponential = [TreeTopology.exponential_profile(levels, eps=1.0) for levels in (3, 4)]
    strategy = TreePathStrategy(topology)
    network = Network(topology.graph, delivery_mode="unicast")
    matchmaker = MatchMaker(network, strategy)
    for node in topology.graph.nodes[7::37][:30]:
        matchmaker.register_server(node, PORT, server_id=f"s@{node}")
    caches = network.cache_sizes()
    depth = max(len(topology.path_to_root(node)) - 1 for node in topology.graph.nodes)
    balanced = TreeTopology.balanced(3, 3)
    return {
        "sites": paper.site_count / PAPER_TOTAL_SITES,
        "edges": paper.edge_estimate / PAPER_TOTAL_EDGES,
        "max_degree": paper.max_degree,
        "heavy_tailed": ours.is_heavy_tailed,
        "terminal_gap": differences["terminal_fraction"],
        "degree_gap": differences["mean_degree"],
        "factorial_depth": min(
            predicted_depth_factorial(tree.node_count, eps=0.0) for tree in factorial.values()
        ),
        "factorial_levels": sum(tree.depth != levels for levels, tree in factorial.items()),
        "exponential_error": max(
            abs(tree.depth - predicted_depth_exponential(tree.node_count, eps=1.0)) / tree.depth
            for tree in exponential
        ),
        "halving": predicted_depth_exponential(2**24, eps=0.5)
        / predicted_depth_exponential(2**24, eps=2.0),
        "name_cost": _matrix(strategy, topology.graph.nodes[:200]).average_cost()
        / (2 * (depth + 1)),
        "core_over_median": caches[topology.root] - statistics.median(caches.values()),
        "core_cache": caches[topology.root],
        "balanced_tree": _matrix(TreePathStrategy(balanced), balanced.nodes()).max_cost(),
    }


@functools.cache
def lighthouse() -> Dict[str, Any]:
    """Section 4: Lighthouse Locate on a 10×10 grid with 1, 4 and 10
    servers and four clients, under both beam schedules."""
    out: Dict[str, Any] = {
        "ruler": _mismatches([RulerSchedule.sequence_prefix(16)], [RULER]),
    }
    clients = ((0, 0), (9, 0), (0, 9), (5, 5))
    schedules = {
        "doubling": lambda: DoublingSchedule(1, escalate_after=2),
        "ruler": lambda: RulerSchedule(base_length=2),
    }
    for name, schedule in schedules.items():
        mean_trials: List[float] = []
        for servers in (1, 4, 10):
            trials: List[int] = []
            found = 0
            for index, client in enumerate(clients):
                topology = ManhattanTopology.square(10)
                beams = LighthouseLocate(
                    topology.build_network(), server_beam_length=3, server_period=2,
                    trail_ttl=8, schedule=schedule(), seed=13 + index,
                )
                rng = random.Random(13 + servers * 31 + index)
                for _ in range(servers):
                    beams.add_server(rng.choice(topology.nodes()), PORT)
                result = beams.locate(client, PORT, max_trials=200)
                found += result.found
                if result.found:
                    trials.append(result.trials)
            if trials:
                mean_trials.append(statistics.mean(trials))
        out[f"{name}_found"] = found  # at the densest service
        out[f"{name}_trials"] = (
            mean_trials[-1] / mean_trials[0] if len(mean_trials) >= 2 else math.nan
        )
    return out


@functools.cache
def hashing() -> Dict[str, Any]:
    """Section 5: Hash Locate on a complete network of 100 nodes."""
    topology = CompleteTopology(100)
    universe = topology.nodes()
    ports = [Port(f"service-{i}") for i in range(200)]
    port = ports[0]
    strategy = HashLocateStrategy(universe, replicas=1)
    matrix = RendezvousMatrix.from_strategy(strategy, universe, port=port)
    load = strategy.load_distribution(ports)

    def found_after(hashed: HashLocateStrategy, crashed) -> bool:
        network = Network(topology.graph, delivery_mode="ideal")
        matchmaker = MatchMaker(network, hashed)
        matchmaker.register_server(7, port)
        for node in crashed:
            network.crash_node(node)
        return matchmaker.locate(50, port).found

    victim = next(iter(strategy.rendezvous_nodes(port)))
    replicated = HashLocateStrategy(universe, replicas=3)
    network = Network(topology.graph, delivery_mode="ideal")
    locator = RehashingLocator(
        network, HashLocateStrategy(universe, replicas=1), max_rehash_attempts=3
    )
    locator.register_server(7, port)
    network.crash_node(victim)
    record, attempts = locator.locate(50, port)
    return {
        "cost": matrix.average_cost(),
        "total": matrix.is_total(),
        "nodes_used": sum(1 for count in load.values() if count > 0),
        "load_ratio": max(load.values()) / statistics.mean(load.values()),
        "before": found_after(strategy, ()),
        "after": found_after(strategy, (victim,)),
        "replicated": found_after(replicated, sorted(replicated.rendezvous_nodes(port))[:2]),
        "rehashed": record is not None,
        "attempts": attempts,
    }


@functools.cache
def robust() -> Dict[str, Any]:
    """Section 2.4: robustness criteria, their price, and survival of
    random and targeted crashes on a complete network of 36 nodes."""
    topology = CompleteTopology(36)
    universe = topology.nodes()
    strategies = {
        "centralized": CentralizedStrategy(universe, centre=0),
        "checkerboard": CheckerboardStrategy(universe),
        "broadcast": BroadcastStrategy(universe),
        "hash": HashLocateStrategy(universe, replicas=1),
        "redundant": FunctionalStrategy(
            post=lambda i: {0, 1, 2, i}, query=lambda j: {0, 1, 2, j},
            name="redundant-3",
        ),
    }
    matrices = {name: _matrix(s, universe) for name, s in strategies.items()}
    reports = {name: robustness.analyse(m) for name, m in matrices.items()}
    price = {name: robustness.redundancy_price(m)["average_cost"] for name, m in matrices.items()}

    def survival(name: str) -> float:
        """Share of 30 matches that survive 3 random crashes."""
        rng = random.Random(5)
        successes = 0
        for _ in range(30):
            network = Network(topology.graph, delivery_mode="ideal")
            matchmaker = MatchMaker(network, strategies[name])
            server, client = rng.sample(universe, 2)
            matchmaker.register_server(server, PORT)
            others = [n for n in universe if n not in (server, client)]
            for victim in rng.sample(others, 3):
                network.crash_node(victim)
            successes += matchmaker.locate(client, PORT).found
        return successes / 30

    ring = RingTopology(32)
    ring_hops = MatchMaker(
        Network(ring.graph, delivery_mode="multicast"), CheckerboardStrategy(ring.nodes())
    ).match_instance(0, 16, PORT).match_messages
    return {
        **{f"{name}_distributed": report.is_distributed for name, report in reports.items()},
        "redundant_f": reports["redundant"].fault_tolerance,
        "checkerboard_f": reports["checkerboard"].fault_tolerance,
        "price_ratio": price["redundant"] / price["centralized"],
        **{f"{name}_survival": survival(name)
           for name in ("broadcast", "redundant", "checkerboard")},
        **{f"{name}_targeted": robustness.surviving_pairs_fraction(matrices[name], [0])
           for name in ("centralized", "checkerboard")},
        "ring_ratio": ring_hops / (ring.node_count - 1),
    }


@functools.cache
def spectrum() -> Dict[str, Any]:
    """Sections 1.4 and 2.3, centralized to distributed on one 8×8 grid:
    addressed nodes, distribution, hops over 30 pairs, fullest cache."""
    topology = ManhattanTopology.square(8)
    nodes = topology.nodes()
    strategies = {
        name: build_strategy(name, topology)
        for name in ("broadcast", "sweep", "centralized", "checkerboard",
                     "hash-locate", "manhattan", "subgraph")
    }
    pairs = _pairs(nodes, 30, seed=17)
    out: Dict[str, Any] = {}
    for name, strategy in strategies.items():
        matrix = _matrix(strategy, nodes)
        out[f"{name}_cost"] = matrix.average_cost()
        out[f"{name}_distributed"] = robustness.analyse(matrix).is_distributed
        out[f"{name}_hops"] = _mean_hops(topology, strategy, pairs)
        out[f"{name}_cache"] = _server_everywhere(topology, strategy).max_cache_size()
    out["distributed"] = sum(
        out[f"{name}_distributed"]
        for name in ("checkerboard", "manhattan", "broadcast", "sweep", "subgraph")
    )
    out["subgraph_sqrt"] = out["subgraph_cost"] / math.sqrt(len(nodes))
    out["subgraph_hops_ratio"] = out["subgraph_hops"] / out["manhattan_hops"]
    out["centralized_hops_ratio"] = out["centralized_hops"] / out["broadcast_hops"]
    out["manhattan_hops_ratio"] = out["manhattan_hops"] / out["broadcast_hops"]
    return out


@functools.cache
def splits() -> Dict[str, Any]:
    """Equation (M3'): the best realisable split of the 8-cube for
    locate/post frequency ratios a = 1/4, 1, 4, 16."""
    d, n = 8, 256
    worst, wrong_way, balanced = 0.0, 0, math.nan
    for ratio in (0.25, 1.0, 4.0, 16.0):
        post, query = min(
            ((2 ** (d - bits), 2**bits) for bits in range(d + 1)),
            key=lambda pq: pq[0] + ratio * pq[1],
        )
        weighted = post + ratio * query
        worst = max(worst, weighted / optimal_split(n, ratio=ratio).weighted_cost)
        wrong_way += (ratio > 1 and post < query) or (ratio < 1 and post > query)
        if ratio == 1.0:
            balanced = weighted
    return {
        "over_analytic": worst,
        "wrong_way": wrong_way,
        "balanced": balanced,
    }


# -- what the extension adds: the workload engine, the time model, two ablations ---

ZIPF = PopularitySpec(kind="zipf", zipf_exponent=1.1)
#: The three name servers of section 2.3's spectrum, one traffic program.
SERVERS = ("checkerboard", "hash-locate", "centralized")


@functools.cache
def under_load() -> Dict[str, Any]:
    """The same Zipf traffic, migrations and all, through three name
    servers on a complete network of 64, every request a locate; then a
    cached checkerboard soak under mixed churn."""
    base = ScenarioSpec(
        name="x15", topology="complete:64", operations=1000, clients=64,
        servers=8, ports=8, seed=1234, cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=2000.0), popularity=ZIPF,
        churn=ChurnSpec(kind="migration", rate=1.0),
    )
    runs = {result.spec.strategy: result.metrics
            for result in compare_under_load(base, SERVERS)}
    imbalance = {name: metrics.load_balance()["imbalance"] for name, metrics in runs.items()}
    soak = run_scenario(replace(
        base, name="x15-soak", clients=32, seed=99, cache_addresses=True,
        arrival=ArrivalSpec(kind="poisson", rate=800.0),
        popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.7),
        churn=ChurnSpec(kind="mixed", rate=2.0),
    )).metrics
    return {
        "locates": sum(metrics.locates for metrics in runs.values()),
        "centralized_imbalance": imbalance["centralized"],
        "centralized_over_hash": imbalance["centralized"] / imbalance["hash-locate"],
        "hash_over_checkerboard": imbalance["hash-locate"] / imbalance["checkerboard"],
        "checkerboard_imbalance": imbalance["checkerboard"],
        **{f"{name}_p95": runs[name].locate_hops.percentile(95) for name in SERVERS},
        "checkerboard_p99": runs["checkerboard"].locate_hops.percentile(99),
        "soak_hit_rate": soak.cache_hit_rate,
        "soak_stale_retries": soak.stale_retries,
        "soak_churn_events": sum(soak.churn_events.values()),
        "soak_success": soak.success_rate,
    }


@functools.cache
def faulted_delivery() -> Dict[str, Any]:
    """Unicast under crashes on an 8×8 grid: a post/query message stream
    through the delivery planner, and a failover-churn locate workload."""
    grid = ManhattanTopology.square(8)
    strategy = ManhattanStrategy(grid)
    nodes = sorted(grid.nodes())
    rng = random.Random(16)
    servers = rng.sample(nodes, 8)
    network = Network(grid.graph, delivery_mode="unicast")
    for node in ((3, 3), (6, 1)):
        network.crash_node(node)
    sent = 0
    for i in range(1000):
        if i % 8 == 0:
            source = servers[(i // 8) % len(servers)]
            targets = strategy.post_set(source)
        else:
            source = nodes[rng.randrange(len(nodes))]
            targets = strategy.query_set(source)
        if network.node_is_up(source):
            network.deliver(source, targets, POST, mode="unicast")
            sent += 1
    stream = network.stats.plan_events
    workload = run_scenario(ScenarioSpec(
        name="x16", topology="manhattan:8", strategy="manhattan", operations=2000,
        clients=32, servers=8, ports=8, seed=616, cache_addresses=False,
        delivery_mode="unicast", arrival=ArrivalSpec(kind="poisson", rate=1000.0),
        popularity=ZIPF, churn=ChurnSpec(kind="failover", rate=1.0, downtime=1.5),
    ))
    return {
        "sent": sent,
        "stream_hits_per_miss": stream["plan_hit"] / stream["plan_miss"],
        "stream_route_misses": stream["route_miss"],
        "crashes": workload.metrics.churn_events["crash"],
        "success": workload.metrics.success_rate,
        "p95": workload.metrics.locate_hops.percentile(95),
        "hits_per_miss": workload.plan_cache["plan_hit"] / workload.plan_cache["plan_miss"],
    }


@functools.cache
def fault_grid() -> Dict[str, Any]:
    """A 3 topologies × 3 name servers × 3 fault regimes matrix: no
    faults, crash/recover waves and link flaps, unicast delivery."""
    operations = 200
    report, _ = run_matrix(MatrixSpec(
        name="x17",
        topologies=("complete:36", "manhattan:6", "hypercube:5"),
        strategies=SERVERS,
        fault_regimes=(
            FaultRegimeSpec(),
            FaultRegimeSpec(kind="waves", events=3, size=2, start=0.08, period=0.15,
                            downtime=0.1),
            FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12, downtime=0.08),
        ),
        base=ScenarioSpec(
            operations=operations, clients=12, servers=8, ports=4, delivery_mode="unicast",
            seed=1717, arrival=ArrivalSpec(kind="poisson", rate=1500.0), popularity=ZIPF,
        ),
    ))
    regimes = report.by_regime()
    strategies = report.by_strategy()
    return {
        "cells": len(report),
        "skipped": len(report.skipped),
        "off_contract": sum(
            summary["requests"] != operations
            or summary["successes"] + summary["failures"] != operations
            or summary["locate_hops"]["p50"] > summary["locate_hops"]["p99"]
            for summary in (cell.summary for cell in report.cells)
        ),
        **{f"{label}_availability": regimes[label]["availability"] for label in regimes},
        "floor": report.availability_floor(),
        "p95_ratio": strategies["centralized"]["p95_locate_hops"]
        / strategies["checkerboard"]["p95_locate_hops"],
    }


#: Half-millisecond links, mild jitter and 0.8 ms of service per message at
#: every node: the knob that melts whichever node a strategy loads.
TIME_MODEL = TimeModelSpec(
    default_link=LinkTiming(latency=0.0005, jitter=0.0001), node_service=0.0008,
)
#: An open stream that keeps a lone 0.8 ms server busy, and the same
#: volume in back-to-back bursts.
ARRIVALS = {
    "poisson": ArrivalSpec(kind="poisson", rate=1200.0),
    "burst": ArrivalSpec(kind="burst", burst_size=80, burst_gap=0.05),
}


@functools.cache
def latency() -> Dict[str, Any]:
    """Checkerboard and centralized on a timed complete network of 36,
    every request a locate, under Poisson and burst arrivals.  The
    centralized burst run carries the default SLO (10 ms at p99 on 0.5 s
    windows); an SLO only reads the clock, so its latencies are the same."""
    runs = {
        (strategy, arrival): run_scenario(ScenarioSpec(
            name=f"x20/{strategy}/{arrival}", topology="complete:36", strategy=strategy,
            operations=1000, clients=36, servers=6, ports=6, seed=2025,
            cache_addresses=False, arrival=ARRIVALS[arrival], popularity=ZIPF,
            time_model=TIME_MODEL,
            slo=SloSpec() if (strategy, arrival) == ("centralized", "burst") else None,
        ))
        for strategy in ("checkerboard", "centralized") for arrival in ARRIVALS
    }
    summary = {key: result.metrics.summary() for key, result in runs.items()}

    def ratio(arrival: str, *path: str) -> float:
        central, spread = summary["centralized", arrival], summary["checkerboard", arrival]
        for step in path:
            central, spread = central[step], spread[step]
        return central / spread

    melt = runs["centralized", "burst"]
    registry = melt.metrics.registry
    slo = summary["centralized", "burst"]["slo"]
    tail = rank_contributors(tail_counts(melt.exemplars), top=1)[0]
    overall = rank_contributors(dict(registry.counter_map("critical_path_us")), top=1)[0]
    return {
        "priced": min(s["latency"]["count"] for s in summary.values()),
        **{f"p99_ratio_{arrival}": ratio(arrival, "latency", "p99") for arrival in ARRIVALS},
        **{f"wait_ratio_{arrival}": ratio(arrival, "queues", "wait_us", "p99")
           for arrival in ARRIVALS},
        **{f"{strategy}_{arrival}_p99": s["latency"]["p99"]
           for (strategy, arrival), s in summary.items()},
        "queue_visits": summary["checkerboard", "burst"]["queues"]["depth"]["count"],
        "timeouts": sum(s["queues"]["message_timeouts"] for s in summary.values()),
        "hop_ratio": runs["centralized", "poisson"].metrics.locate_hops.percentile(95)
        / runs["checkerboard", "poisson"].metrics.locate_hops.percentile(95),
        "tail_top": tail["key"],
        "tail_share": tail["share"],
        "overall_top": overall["key"],
        "overall_share": overall["share"],
        "untelescoped": sum(
            sum(segment[3] for segment in exemplar["critical_path"]) != exemplar["latency_us"]
            for exemplar in melt.exemplars
        ),
        "blamed_minus_latency": sum(registry.counter_map("critical_path_us").values())
        - registry.timeline("timeline", slo["window_us"]).total("latency_sum_us"),
        "burn_rate": slo["latency_burn_rate"],
        "first_breach": slo["first_breach_us"],
        "breached_windows": slo["breached_windows"],
    }


@functools.cache
def delivery_modes() -> Dict[str, Any]:
    """Section 2's complete-network count against per-destination unicast
    and spanning-tree multicast: mean hops of four matches on a 7×7 grid."""
    grid = ManhattanTopology.square(7)
    strategy = ManhattanStrategy(grid)
    pairs = (((0, 0), (6, 6)), ((3, 3), (0, 6)), ((6, 0), (3, 2)), ((2, 5), (5, 1)))
    hops = {}
    for mode in ("ideal", "unicast", "multicast"):
        matchmaker = MatchMaker(Network(grid.graph, delivery_mode=mode), strategy)
        hops[mode] = statistics.fmean(
            matchmaker.match_instance(server, client, PORT).match_messages
            for server, client in pairs
        )
    return hops


@functools.cache
def scoped_hashing() -> Dict[str, Any]:
    """Sections 3.5 and 5 on a 4^3 hierarchy: one network-wide hash for
    every service, against 16 cluster-local, 3 campus-wide and 1 global
    service hashed within their scope."""
    topology = HierarchicalTopology.uniform(4, 3)
    local = [Port(f"local-{i}") for i in range(16)]
    campus = [Port(f"campus-{i}") for i in range(3)]
    everywhere = Port("mail-relay")
    scopes = {**dict.fromkeys(local, 1), **dict.fromkeys(campus, 2), everywhere: 3}
    out: Dict[str, Any] = {"lost": 0}
    for name, strategy in (
        ("flat", HashLocateStrategy(topology.nodes(), replicas=1)),
        ("scoped", ScopedHashStrategy(topology, scopes=scopes)),
    ):
        network = Network(topology.graph, delivery_mode="unicast")
        matchmaker = MatchMaker(network, strategy)
        # Every top-level branch runs its own copy of each local service.
        matches = [((branch, 0, 1), (branch, 0, 2), port)
                   for port in local for branch in range(4)]
        matches += [((0, 1, 1), (0, 2, 3), port) for port in (*campus, everywhere)]
        hops = []
        for server, client, port in matches:
            matchmaker.register_server(server, port, server_id=f"{port.name}@{server}")
            result = matchmaker.locate(client, port)
            out["lost"] += not result.found
            hops.append(result.query_messages + result.reply_messages)
        caches = network.cache_sizes().values()
        out[f"{name}_hops"] = statistics.mean(hops)
        out[f"{name}_fullest"] = max(caches)
        out[f"{name}_holding"] = sum(size > 0 for size in caches)
    return out


# -- the table ---------------------------------------------------------------------

class Claim(NamedTuple):
    """One row: a stated result and how this package measures it."""

    id: str
    section: str
    statement: str
    measure: Tuple[Callable[[], Dict[str, Any]], str]
    expected: Any
    relation: str = "=="
    tolerance: float = 0.0


#: Float slack for bounds met with equality.
EPS = 1e-9

CLAIMS = (
    # E1: the printed rendezvous matrices of Examples 1-6.
    Claim("E1.1", "§2.3.1", "Example 1, broadcasting: cells off the printed matrix",
          (examples, "broadcast"), 0),
    Claim("E1.2", "§2.3.1", "Example 2, sweeping: cells off the printed matrix",
          (examples, "sweep"), 0),
    Claim("E1.3", "§2.3.1", "Example 3, centralized at 3: cells off the printed matrix",
          (examples, "centralized"), 0),
    Claim("E1.4", "§2.3.1", "Example 4, truly distributed: cells off the printed matrix",
          (examples, "checkerboard"), 0),
    Claim("E1.5", "§2.3.1", "Example 5, lowest common supervisor: cells off the matrix",
          (examples, "hierarchy"), 0),
    Claim("E1.6", "§2.3.1", "Example 5: pairs whose designated node is no rendezvous",
          (examples, "designated_outside"), 0),
    Claim("E1.7", "§2.3.1", "Example 6, binary 3-cube: cells off server[0] + client[1:]",
          (examples, "cube"), 0),
    Claim("E1.8", "§2.3.1", "Example 6: P(000) as listed",
          (examples, "cube_post_000"), "000 001 010 011"),
    Claim("E1.9", "§2.3.1", "Example 6: Q(101) as listed",
          (examples, "cube_query_101"), "001 101"),
    Claim("E1.10", "§2.3.2", "Examples 1-5 meet Proposition 2: least m(n) - bound",
          (examples, "prop2_slack"), 0, ">=", EPS),
    # E2: random match-making and the 2·sqrt(n) threshold.
    Claim("E2.1", "§2.2", "E|P ∩ Q| = pq/n on n = 144: largest Monte-Carlo error",
          (random_sets, "mean_error"), 0.25, "<"),
    Claim("E2.2", "§2.2", "hit rate = hypergeometric tail: largest Monte-Carlo error",
          (random_sets, "hit_error"), 0.06, "<"),
    Claim("E2.3", "§2.2", "least p + q expecting one rendezvous: 2√n",
          (random_sets, "threshold"), 24.0),
    Claim("E2.4", "§2.2", "E|P ∩ Q| below the threshold (p = q = 4)",
          (random_sets, "below"), 1.0, "<"),
    Claim("E2.5", "§2.2", "E|P ∩ Q| at the threshold (p = q = 12)",
          (random_sets, "at"), 1.0),
    Claim("E2.6", "§2.2", "E|P ∩ Q| above the threshold (p = 12, q = 24)",
          (random_sets, "above"), 1.0, ">"),
    # E3: Propositions 1-2, the lower bounds.
    Claim("E3.1", "§2.3.2", "Proposition 2, n = 64, all registry: least m(n) - bound",
          (lower_bounds, "prop2_slack"), 0, ">=", EPS),
    Claim("E3.2", "§2.3.2", "Proposition 1, n = 64: least avg #P·#Q - bound",
          (lower_bounds, "prop1_slack"), 0, ">=", EPS),
    Claim("E3.3", "§2.3.2", "truly distributed bound, n = 64: 2√n",
          (lower_bounds, "checkerboard_bound"), 16.0, "==", EPS),
    Claim("E3.4", "§2.3.2", "checkerboard m(n) meets it",
          (lower_bounds, "checkerboard"), 16.0),
    Claim("E3.5", "§2.3.2", "centralized bound",
          (lower_bounds, "centralized_bound"), 2.0),
    Claim("E3.6", "§2.3.2", "centralized m(n) meets it",
          (lower_bounds, "centralized"), 2.0),
    Claim("E3.7", "§2.3.2", "broadcast m(n) = n + 1",
          (lower_bounds, "broadcast"), 65.0),
    Claim("E3.8", "§2.3.2", "sweep m(n) = n + 1",
          (lower_bounds, "sweep"), 65.0),
    Claim("E3.9", "§2.3.2", "P(i) = Q(j) = U, the most inefficient: m(n) = 2n",
          (lower_bounds, "full"), 128.0),
    Claim("E3.10", "§2.3.2", "closed form of the most inefficient cost, n = 64",
          (lower_bounds, "most_inefficient"), 128),
    # E4: Propositions 3-4, the matching upper bounds.
    Claim("E4.1", "§2.3.4", "Proposition 3, n = 16..144: matrices not total",
          (upper_bounds, "not_total"), 0),
    Claim("E4.2", "§2.3.4", "Proposition 3: m(n) = 2√n at n = 16",
          (upper_bounds, "cost_16"), 8.0),
    Claim("E4.3", "§2.3.4", "Proposition 3: m(n) = 2√n at n = 36",
          (upper_bounds, "cost_36"), 12.0),
    Claim("E4.4", "§2.3.4", "Proposition 3: m(n) = 2√n at n = 64",
          (upper_bounds, "cost_64"), 16.0),
    Claim("E4.5", "§2.3.4", "Proposition 3: m(n) = 2√n at n = 100",
          (upper_bounds, "cost_100"), 20.0),
    Claim("E4.6", "§2.3.4", "Proposition 3: m(n) = 2√n at n = 144",
          (upper_bounds, "cost_144"), 24.0),
    Claim("E4.7", "§2.3.4", "Proposition 3: avg #P·#Q = n, largest error",
          (upper_bounds, "product_error"), 0.0),
    Claim("E4.8", "§2.3.4", "Proposition 4: the lift of n = 25 has 4n nodes",
          (upper_bounds, "lift_n"), 100),
    Claim("E4.9", "§2.3.4", "Proposition 4: the lift doubles m(n)",
          (upper_bounds, "lift_ratio"), 2.0),
    # E5: Manhattan grids, tori and meshes.
    Claim("E5.1", "§3.1", "the printed 9-node grid matrix: cells off",
          (examples, "manhattan_9"), 0),
    Claim("E5.2", "§3.1", "m(n) = 2√n on square grids 3²..11²: largest error",
          (grids, "square_error"), 0.0),
    Claim("E5.3", "§3.1", "m(n) = p + q on a 4×9 grid",
          (grids, "rect"), 13.0),
    Claim("E5.4", "§3.1", "caches of √n suffice: largest fullest cache - √n",
          (grids, "cache_excess"), 1, "<="),
    Claim("E5.5", "§3.1", "m(n) grows as n^0.5: fitted exponent",
          (grids, "exponent"), 0.5, "==", 0.02),
    Claim("E5.6", "§3.1", "6×6 torus / open grid hops, corner to corner",
          (grids, "torus_ratio"), 1.0, "<="),
    Claim("E5.7", "§3.1", "d-dim meshes: m(n) = 2n^((d-1)/d), largest error",
          (grids, "mesh_error"), 0.0, "<=", EPS),
    Claim("E5.8", "§3.1", "6×6 grid: row/column / checkerboard hops",
          (topology_aware, "manhattan"), 1.0, "<"),
    # E6: binary hypercubes.
    Claim("E6.1", "§3.2", "d/2-subcubes, d = 4, 6, 8: largest |m(n) - 2√n|",
          (cubes, "cost_error"), 0.0),
    Claim("E6.2", "§3.2", "pairs with more than one rendezvous node",
          (cubes, "single_misses"), 0),
    Claim("E6.3", "§3.2", "routing overhead: largest mean hops / 2√n",
          (cubes, "hop_ratio"), 3.0, "<="),
    Claim("E6.4", "§3.2", "6-cube: server prefix bits of the cheapest eps·d split",
          (cubes, "best_bits"), 3),
    Claim("E6.5", "§3.2", "6-cube: #P + #Q of the balanced split",
          (cubes, "best_total"), 16),
    Claim("E6.6", "§3.2", "6-cube: #P + #Q with 1 prefix bit (32 + 2)",
          (cubes, "total_1"), 34),
    Claim("E6.7", "§3.2", "6-cube: #P + #Q with 5 prefix bits (2 + 32)",
          (cubes, "total_5"), 34),
    Claim("E6.8", "§3.2", "6-cube: subcube / checkerboard hops",
          (topology_aware, "hypercube"), 1.0, "<"),
    # E7: cube-connected cycles.
    Claim("E7.1", "§3.3", "CCC, d = 3, 4, 5: matrices not total",
          (ccc, "not_total"), 0),
    Claim("E7.2", "§3.3", "m(n) ∈ O(√(n log n)): largest m(n) / √(n·d)",
          (ccc, "cost_ratio"), 2.5, "<="),
    Claim("E7.3", "§3.3", "below the flat broadcast cost: largest m(n) / n",
          (ccc, "flat_ratio"), 1.0, "<"),
    Claim("E7.4", "§3.3", "caches O(√(n/log n)): largest fullest cache - 3√(n/d)",
          (ccc, "cache_excess"), 1.0, "<="),
    Claim("E7.5", "§3.3", "sublinear: cost growth / size growth, d = 3 → 5",
          (ccc, "growth"), 1.0, "<"),
    Claim("E7.6", "§3.3", "CCC d = 3: subcube / checkerboard hops",
          (topology_aware, "ccc"), 1.0, "<"),
    # E8: projective planes.
    Claim("E8.1", "§3.4", "PG(2, k), k = 2, 3, 5, 7: matrices not total",
          (planes, "not_total"), 0),
    Claim("E8.2", "§3.4", "m(n) = 2(k + 1): largest error",
          (planes, "line_error"), 0.0),
    Claim("E8.3", "§3.4", "m(n) ≈ 2√n: largest |m(n) - 2√n|",
          (planes, "sqrt_error"), 2.5, "<"),
    Claim("E8.4", "§3.4", "caches ≈ √n: largest mean cache - (k + 1)",
          (planes, "mean_cache_excess"), 0.0, "<=", EPS),
    Claim("E8.5", "§3.4", "largest fullest cache / n",
          (planes, "cache_share"), 1.0, "<="),
    Claim("E8.6", "§3.4", "pairs lost when a line off their points crashes",
          (planes, "lost"), 0),
    Claim("E8.7", "§3.4", "PG(2, 5): lines / checkerboard hops",
          (topology_aware, "projective"), 1.0, "<"),
    # E9: hierarchical gateway networks.
    Claim("E9.1", "§3.5", "64-node hierarchies, 1-6 levels: matrices not total",
          (hierarchies, "not_total"), 0),
    Claim("E9.2", "§3.5", "node counts of the four configurations",
          (hierarchies, "sizes"), [64]),
    Claim("E9.3", "§3.5", "m(n) ≤ Σ 2√n_i: largest excess",
          (hierarchies, "level_excess"), 0.0, "<=", EPS),
    Claim("E9.4", "§3.5", "one level is the flat optimum 2√n",
          (hierarchies, "flat"), 16.0),
    Claim("E9.5", "§3.5", "six levels / one level m(n)",
          (hierarchies, "deep_ratio"), 1.0, "<"),
    Claim("E9.6", "§3.5", "six levels head for O(log n): m(n) ≤ 3 log2 n",
          (hierarchies, "deepest"), 18.0, "<="),
    Claim("E9.7", "§3.5", "caches grow toward the top: six-level / flat fullest",
          (hierarchies, "cache_ratio"), 1.0, ">="),
    Claim("E9.8", "§3.5", "depth steps where m(n) rises",
          (hierarchies, "rises"), 0),
    Claim("E9.9", "§3.5", "4^3 hierarchy: gateway / checkerboard hops",
          (topology_aware, "hierarchy"), 1.0, "<"),
    # E10: organically grown networks and trees.
    Claim("E10.1", "§3.6", "legible table rows / the 1916 UUCPnet sites",
          (organic, "sites"), 0.97, ">="),
    Claim("E10.2", "§3.6", "their edge estimate / the 3848 edges",
          (organic, "edges"), 0.9, ">="),
    Claim("E10.3", "§3.6", "largest degree in the table (ihnp4)",
          (organic, "max_degree"), 641),
    Claim("E10.4", "§3.6", "synthetic 800 sites: max degree ≥ 10 × mean",
          (organic, "heavy_tailed"), True),
    Claim("E10.5", "§3.6", "synthetic vs table: terminal-site fraction gap",
          (organic, "terminal_gap"), 0.15, "<"),
    Claim("E10.6", "§3.6", "synthetic vs table: mean degree gap",
          (organic, "degree_gap"), 1.0, "<"),
    Claim("E10.7", "§3.6", "factorial trees, 3-5 levels: least predicted depth",
          (organic, "factorial_depth"), 0.0, ">"),
    Claim("E10.8", "§3.6", "factorial trees whose depth is not their level count",
          (organic, "factorial_levels"), 0),
    Claim("E10.9", "§3.6", "exponential trees, 3-4 levels: largest depth error",
          (organic, "exponential_error"), 1.0, "<"),
    Claim("E10.10", "§3.6", "quadrupling eps halves the depth: depth ratio",
          (organic, "halving"), 2.0, "==", 0.05),
    Claim("E10.11", "§3.6", "path to root costs O(l): m(n) / 2(l + 1)",
          (organic, "name_cost"), 1.0, "<="),
    Claim("E10.12", "§3.6", "caches concentrate at the core: root - median cache",
          (organic, "core_over_median"), 0, ">="),
    Claim("E10.13", "§3.6", "root cache",
          (organic, "core_cache"), 10, ">="),
    Claim("E10.14", "§3.6", "balanced 3-ary tree, l = 3: dearest pair ≤ 2(l + 1)",
          (organic, "balanced_tree"), 8, "<="),
    # E11: Lighthouse Locate.
    Claim("E11.1", "§4", "ruler schedule: first 16 off 1 2 1 3 1 2 1 4 ...",
          (lighthouse, "ruler"), 0),
    Claim("E11.2", "§4", "doubling beams, 10 servers: clients of 4 that find one",
          (lighthouse, "doubling_found"), 4),
    Claim("E11.3", "§4", "doubling beams: mean trials, densest / sparsest",
          (lighthouse, "doubling_trials"), 1.0, "<="),
    Claim("E11.4", "§4", "ruler beams, 10 servers: clients of 4 that find one",
          (lighthouse, "ruler_found"), 4),
    Claim("E11.5", "§4", "ruler beams: mean trials, densest / sparsest",
          (lighthouse, "ruler_trials"), 1.0, "<="),
    # E12: Hash Locate.
    Claim("E12.1", "§5", "Hash Locate, n = 100: m(n) = 2",
          (hashing, "cost"), 2.0),
    Claim("E12.2", "§5", "Hash Locate matrix is total",
          (hashing, "total"), True),
    Claim("E12.3", "§5", "200 ports spread: nodes holding some",
          (hashing, "nodes_used"), 50, ">="),
    Claim("E12.4", "§5", "no node hoards: max / mean ports per node",
          (hashing, "load_ratio"), 6.0, "<="),
    Claim("E12.5", "§5", "locate succeeds with every node up",
          (hashing, "before"), True),
    Claim("E12.6", "§5", "locate succeeds once the port's node crashes",
          (hashing, "after"), False),
    Claim("E12.7", "§5", "3 replicas, 2 crashed: locate succeeds",
          (hashing, "replicated"), True),
    Claim("E12.8", "§5", "rehashing after the crash: locate succeeds",
          (hashing, "rehashed"), True),
    Claim("E12.9", "§5", "rehash attempts used",
          (hashing, "attempts"), 1, ">="),
    # E13: robustness and its price.
    Claim("E13.1", "§2.4", "centralized is distributed",
          (robust, "centralized_distributed"), False),
    Claim("E13.2", "§2.4", "one-replica Hash Locate is distributed",
          (robust, "hash_distributed"), False),
    Claim("E13.3", "§2.4", "checkerboard is distributed",
          (robust, "checkerboard_distributed"), True),
    Claim("E13.4", "§2.4", "broadcast is distributed",
          (robust, "broadcast_distributed"), True),
    Claim("E13.5", "§2.4", "three shared anchors are distributed",
          (robust, "redundant_distributed"), True),
    Claim("E13.6", "§2.4", "three shared anchors tolerate f crashes",
          (robust, "redundant_f"), 2),
    Claim("E13.7", "§2.4", "checkerboard tolerates f crashes",
          (robust, "checkerboard_f"), 0),
    Claim("E13.8", "§2.4", "robustness costs: anchors / centralized m(n)",
          (robust, "price_ratio"), 3.0, ">="),
    Claim("E13.9", "§2.4", "3 random crashes, n = 36: broadcast matches kept",
          (robust, "broadcast_survival"), 1.0),
    Claim("E13.10", "§2.4", "3 random crashes: three-anchor matches kept",
          (robust, "redundant_survival"), 1.0),
    Claim("E13.11", "§2.4", "3 random crashes: checkerboard matches kept",
          (robust, "checkerboard_survival"), 0.8, ">="),
    Claim("E13.12", "§2.4", "centre crashed: centralized pairs that can meet",
          (robust, "centralized_targeted"), 0.0),
    Claim("E13.13", "§2.4", "node 0 crashed: checkerboard pairs that can meet",
          (robust, "checkerboard_targeted"), 0.9, ">="),
    Claim("E13.14", "§2.4", "ring of 32 costs Ω(n): checkerboard hops / (n - 1)",
          (robust, "ring_ratio"), 0.25, ">="),
    # E14: centralized to distributed on one grid.
    Claim("E14.1", "§2.3", "8×8 grid: centralized m(n)",
          (spectrum, "centralized_cost"), 2.0),
    Claim("E14.2", "§2.3", "8×8 grid: Hash Locate m(n)",
          (spectrum, "hash-locate_cost"), 2.0),
    Claim("E14.3", "§2.3", "8×8 grid: checkerboard m(n) = 2√n",
          (spectrum, "checkerboard_cost"), 16.0),
    Claim("E14.4", "§2.3", "8×8 grid: row/column m(n) = 2√n",
          (spectrum, "manhattan_cost"), 16.0),
    Claim("E14.5", "§2.3", "8×8 grid: broadcast m(n) = n + 1",
          (spectrum, "broadcast_cost"), 65.0),
    Claim("E14.6", "§2.3", "8×8 grid: sweep m(n) = n + 1",
          (spectrum, "sweep_cost"), 65.0),
    Claim("E14.7", "§2.3", "the cheap are fragile: centralized is distributed",
          (spectrum, "centralized_distributed"), False),
    Claim("E14.8", "§2.3", "the cheap are fragile: Hash Locate is distributed",
          (spectrum, "hash-locate_distributed"), False),
    Claim("E14.9", "§2.3", "distributed among the other five strategies",
          (spectrum, "distributed"), 5),
    Claim("E14.10", "§3", "subgraph decomposition addresses ~√n: m(n) / √n",
          (spectrum, "subgraph_sqrt"), 2.75, "==", 1.25),
    Claim("E14.11", "§3", "subgraph / row/column hops",
          (spectrum, "subgraph_hops_ratio"), 1.0, ">="),
    Claim("E14.12", "§2.3", "centralized / broadcast hops",
          (spectrum, "centralized_hops_ratio"), 1.0, "<"),
    Claim("E14.13", "§2.3", "row/column / broadcast hops",
          (spectrum, "manhattan_hops_ratio"), 0.5, "<"),
    Claim("E14.14", "§2.3", "broadcast: fullest cache",
          (spectrum, "broadcast_cache"), 2, "<="),
    Claim("E14.15", "§2.3", "centralized: fullest cache holds all n servers",
          (spectrum, "centralized_cache"), 64),
    # A1: the 8-cube's post/query split against the frequency weighting
    # (M3'); its balanced matrix is E6.1's d = 8.
    Claim("A1.1", "§2.3.2", "(M3') best realisable / analytic #P + a·#Q",
          (splits, "over_analytic"), 2.0, "<="),
    Claim("A1.2", "§2.3.2", "(M3') best splits skewed against the ratio a",
          (splits, "wrong_way"), 0),
    Claim("A1.3", "§2.3.2", "(M3') a = 1: best #P + a·#Q = 2√n",
          (splits, "balanced"), 32.0),
    # What the extension adds.  X15: one traffic program, three name servers.
    Claim("X15.1", "§2.3", "complete:64, 3 × 1000 requests, no address cache: locates",
          (under_load, "locates"), 3000),
    Claim("X15.2", "§2.3", "centralized: busiest / mean node load ≈ n",
          (under_load, "centralized_imbalance"), 64.0),
    Claim("X15.3", "§2.3", "load imbalance: centralized / Hash Locate",
          (under_load, "centralized_over_hash"), 1.0, ">"),
    Claim("X15.4", "§2.3", "load imbalance: Hash Locate / checkerboard",
          (under_load, "hash_over_checkerboard"), 1.0, ">"),
    Claim("X15.5", "§2.3", "checkerboard: busiest / mean node load",
          (under_load, "checkerboard_imbalance"), 1.501),
    Claim("X15.6", "§2.3", "checkerboard: p95 locate hops",
          (under_load, "checkerboard_p95"), 9),
    Claim("X15.7", "§2.3", "Hash Locate: p95 locate hops",
          (under_load, "hash-locate_p95"), 2),
    Claim("X15.8", "§2.3", "centralized: p95 locate hops",
          (under_load, "centralized_p95"), 2),
    Claim("X15.9", "§2.3", "checkerboard: p99 locate hops",
          (under_load, "checkerboard_p99"), 9),
    Claim("X15.10", "§2.3", "cached soak, mixed churn: address-cache hit rate",
          (under_load, "soak_hit_rate"), 0.801),
    Claim("X15.11", "§2.3", "cached soak: retries after a stale address",
          (under_load, "soak_stale_retries"), 6),
    Claim("X15.12", "§2.3", "cached soak: churn events",
          (under_load, "soak_churn_events"), 4),
    Claim("X15.13", "§2.3", "cached soak: requests that succeed",
          (under_load, "soak_success"), 1.0),
    # X16: unicast delivery under crashes.
    Claim("X16.1", "§2.4", "8×8 grid, 2 crashed: stream messages from live nodes",
          (faulted_delivery, "sent"), 971),
    Claim("X16.2", "§2.4", "stream: delivery plans served per plan built",
          (faulted_delivery, "stream_hits_per_miss"), 10.0, ">"),
    Claim("X16.3", "§2.4", "stream: routing tables built for the fault revision",
          (faulted_delivery, "stream_route_misses"), 1),
    Claim("X16.4", "§2.4", "failover churn, 2000 locates: crashes",
          (faulted_delivery, "crashes"), 3),
    Claim("X16.5", "§2.4", "failover churn: requests that succeed",
          (faulted_delivery, "success"), 0.9895),
    Claim("X16.6", "§2.4", "failover churn: p95 locate hops",
          (faulted_delivery, "p95"), 34),
    Claim("X16.7", "§2.4", "failover churn: delivery plans served per plan built",
          (faulted_delivery, "hits_per_miss"), 1.0, ">"),
    # X17: a matrix of topologies, name servers and fault regimes.
    Claim("X17.1", "§2.4", "3 topologies × 3 servers × 3 regimes: cells run",
          (fault_grid, "cells"), 27),
    Claim("X17.2", "§2.4", "cells skipped as incompatible",
          (fault_grid, "skipped"), 0),
    Claim("X17.3", "§2.4", "cells off the contract (requests, outcomes, p50 ≤ p99)",
          (fault_grid, "off_contract"), 0),
    Claim("X17.4", "§2.4", "no faults: requests that succeed",
          (fault_grid, "none_availability"), 1.0),
    Claim("X17.5", "§2.4", "crash/recover waves: requests that succeed",
          (fault_grid, "waves(e3,s2)_availability"), 0.9772),
    Claim("X17.6", "§2.4", "link flaps: requests that succeed",
          (fault_grid, "flaps(e4)_availability"), 1.0),
    Claim("X17.7", "§2.4", "worst cell: requests that succeed",
          (fault_grid, "floor"), 0.91),
    Claim("X17.8", "§2.4", "worst p95 locate hops: centralized / checkerboard",
          (fault_grid, "p95_ratio"), 1.0, "<="),
    # X20: latency on the virtual clock, where hop counts mislead.
    Claim("X20.1", "§2.3", "timed complete:36, 4 × 1000 locates: fewest priced",
          (latency, "priced"), 1000),
    Claim("X20.2", "§2.3", "Poisson: centralized / checkerboard p99 latency",
          (latency, "p99_ratio_poisson"), 2.0, ">"),
    Claim("X20.3", "§2.3", "bursts: centralized / checkerboard p99 latency",
          (latency, "p99_ratio_burst"), 2.0, ">"),
    Claim("X20.4", "§2.3", "Poisson: centralized / checkerboard p99 queue wait",
          (latency, "wait_ratio_poisson"), 1.0, ">"),
    Claim("X20.5", "§2.3", "bursts: centralized / checkerboard p99 queue wait",
          (latency, "wait_ratio_burst"), 1.0, ">"),
    Claim("X20.6", "§2.3", "checkerboard, Poisson: p99 latency µs",
          (latency, "checkerboard_poisson_p99"), 18876),
    Claim("X20.7", "§2.3", "checkerboard, bursts: p99 latency µs",
          (latency, "checkerboard_burst_p99"), 90385),
    Claim("X20.8", "§2.3", "centralized, Poisson: p99 latency µs",
          (latency, "centralized_poisson_p99"), 48182),
    Claim("X20.9", "§2.3", "centralized, bursts: p99 latency µs",
          (latency, "centralized_burst_p99"), 437500),
    Claim("X20.10", "§2.3", "checkerboard, bursts: queue stations visited",
          (latency, "queue_visits"), 17432),
    Claim("X20.11", "§2.3", "messages timed out in the four runs",
          (latency, "timeouts"), 0),
    Claim("X20.12", "§2.3", "yet hops favour it: centralized / checkerboard p95 hops",
          (latency, "hop_ratio"), 1.0, "<="),
    # X21: which segment carries the centralized tail (X20.9's run).
    Claim("X21.1", "§2.3", "centralized, bursts: top contributor to the tail",
          (latency, "tail_top"), "query:node_wait:0"),
    Claim("X21.2", "§2.3", "its share of the tail's critical path",
          (latency, "tail_share"), 0.9694),
    Claim("X21.3", "§2.3", "top contributor over every request",
          (latency, "overall_top"), "query:node_wait:0"),
    Claim("X21.4", "§2.3", "its share of every critical path",
          (latency, "overall_share"), 0.9415),
    Claim("X21.5", "§2.3", "exemplars whose critical path does not sum to latency",
          (latency, "untelescoped"), 0),
    Claim("X21.6", "§2.3", "blamed µs - summed request latency µs",
          (latency, "blamed_minus_latency"), 0),
    Claim("X21.7", "§2.3", "10 ms p99 objective: latency burn rate",
          (latency, "burn_rate"), 99.5),
    Claim("X21.8", "§2.3", "10 ms p99 objective: first breach at µs",
          (latency, "first_breach"), 0),
    Claim("X21.9", "§2.3", "10 ms p99 objective: 0.5 s windows breached",
          (latency, "breached_windows"), 2),
    # XA2: how a fan-out is delivered.
    Claim("XA2.1", "§2.3.5", "7×7 grid, 4 matches: complete-network hops = 2(side - 1)",
          (delivery_modes, "ideal"), 12.0),
    Claim("XA2.2", "§2.3.5", "spanning-tree multicast hops = 2(side - 1)",
          (delivery_modes, "multicast"), 12.0),
    Claim("XA2.3", "§2.3.5", "per-destination unicast hops",
          (delivery_modes, "unicast"), 35.0),
    # XA3: Hash Locate scoped to the hierarchy level a service lives on.
    Claim("XA3.1", "§5", "4^3 hierarchy, 20 services: locates that fail",
          (scoped_hashing, "lost"), 0),
    Claim("XA3.2", "§5", "one network-wide hash: mean locate hops",
          (scoped_hashing, "flat_hops"), 6.412, "==", 0.0005),
    Claim("XA3.3", "§5", "hashed within each service's scope: mean locate hops",
          (scoped_hashing, "scoped_hops"), 1.853, "==", 0.0005),
    Claim("XA3.4", "§5", "network-wide hash: hosts holding a posting",
          (scoped_hashing, "flat_holding"), 18),
    Claim("XA3.5", "§5", "scoped hash: hosts holding a posting",
          (scoped_hashing, "scoped_holding"), 19),
    Claim("XA3.6", "§5", "network-wide hash: fullest cache",
          (scoped_hashing, "flat_fullest"), 8),
    Claim("XA3.7", "§5", "scoped hash: fullest cache",
          (scoped_hashing, "scoped_fullest"), 7),
)


def check(claim: Claim) -> Tuple[Any, bool]:
    """``(measured, holds)`` for one row.  An experiment that raises fails
    every row that reads it, with the error as the measured value."""
    experiment, key = claim.measure
    try:
        measured = experiment()[key]
    except Exception as error:  # a broken experiment is a failed row, named
        return f"{type(error).__name__}: {error}", False
    expected, tolerance = claim.expected, claim.tolerance
    if claim.relation == "==":
        holds = abs(measured - expected) <= tolerance if tolerance else measured == expected
    elif claim.relation == "<=":
        holds = measured <= expected + tolerance
    elif claim.relation == ">=":
        holds = measured >= expected - tolerance
    elif claim.relation == "<":
        holds = measured < expected
    else:
        holds = measured > expected
    return measured, bool(holds)


def _show(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _expected(claim: Claim) -> str:
    bound = f"{claim.relation} {_show(claim.expected)}"
    return f"{bound} ± {claim.tolerance:g}" if claim.tolerance else bound


def render() -> Tuple[str, List[str]]:
    """The paper-vs-measured table, and one line per failing row naming its
    id, measured value and expectation (also the table's last lines)."""
    paper_rows: List[Dict[str, str]] = []
    extension_rows: List[Dict[str, str]] = []
    failures: List[str] = []
    for claim in CLAIMS:
        measured, holds = check(claim)
        (extension_rows if claim.id.startswith("X") else paper_rows).append({
            "id": claim.id, "§": claim.section, "claim": claim.statement,
            "expected": _expected(claim), "measured": _show(measured),
            "ok": "yes" if holds else "NO",
        })
        if not holds:
            failures.append(
                f"FAILED {claim.id}: measured {_show(measured)}, "
                f"expected {_expected(claim)}"
            )
    title = "Mullender & Vitányi (PODC 1985): what the paper states, what we measure"
    summary = f"{len(CLAIMS) - len(failures)} of {len(CLAIMS)} claims hold"
    return "\n".join([
        format_table(paper_rows, title=title), "",
        format_table(extension_rows, title="What the extension adds"), "",
        summary, *failures,
    ]), failures
