"""A deterministic call budget for the request path: untimed, faulted, timed.

The perf ledger (``benchmarks/ledger``) measures what a request costs the
host; this guard keeps the part of that measurement that repeats exactly —
Python/C function calls per request under ``cProfile`` — inside tier-1, so
a refactor that re-adds a per-node call, a per-message ``bump`` or a
per-hop helper fails the push and not the next ledger run.

The cost is *marginal*: the same scenario at 500 and at 1 500 requests, the
difference divided by 1 000, so set-up (topology, routing tables, placement)
cancels out.  Measured this way (Python 3.11) the parent of the PR that
added the untimed guard cost 222.9 calls/request, 21 of them
``CounterMap.bump`` and 6 ``Network.node_is_up``; the PR 161.9, 0 and 1.
The parent of the PR that added the timed guard cost 882.1 calls per
``timed_burst`` request — 17.3 ``SimKernel.schedule``, 17.3 each of
``prune``/``depth``/``_earliest_start``/``_insert`` under ``acquire``, 18.4
``Histogram._slot`` — and the PR 600.2, 0, 4.4 (the true gap fills) and 1.0.
The parent of the PR that put every posting in one store cost 161.9 calls
per ``locate_flood`` request, 8 ``answer_query`` and 8 ``lookup`` among them
(one per node of Q(j)), and 237.6 per ``faulted_churn`` request with 0.221
BFS rows (``RoutingTable._build``: one per *responder* per fault revision);
the PR 126.1 with one ``holders`` question, and 172.3 with 0.101 rows (one
per client per revision).  The parent of the PR that made a fault revision
a mask over the static routing table cost 171.5 calls per ``faulted_churn``
request, 0.004 of them ``surviving_graph`` copies and 0.448 ``link_is_up``
checks under them; the PR 166.3, and 0 of either.
The budgets' head-room covers the spread between Python 3.10 and 3.12; they
are ``<=``, never ``==``: once any Hypothesis test has run in the process
its ``gc`` callback is counted by ``cProfile`` too.
"""

import cProfile
from collections import Counter
from pathlib import PurePath
from typing import Callable, Dict, Tuple

from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    PopularitySpec,
    ScenarioSpec,
    WorkloadDriver,
)

#: Calls one more untimed request may cost, set-up excluded.
CALLS_PER_REQUEST_BUDGET = 150
#: ``(file, function) -> calls`` one more request may spend there.
FUNCTION_BUDGETS = {
    ("obs/registry.py", "bump"): 1,
    ("network/simulator.py", "node_is_up"): 2,
    # A locate is holders(port) ∩ reached: one question to the store, not
    # one lookup per node of Q(j) (eight before the store existed).
    ("network/cache.py", "holders"): 1,
    ("network/cache.py", "lookup"): 1,
}

#: The same for one more multi-hop request under link flaps and churn:
#: measured + ~8%.
FAULTED_CALLS_PER_REQUEST_BUDGET = 180
FAULTED_FUNCTION_BUDGETS = {
    # One BFS row per client per fault revision, none per responder.
    ("network/routing.py", "_build"): 0.13,
    # A fault revision masks the static table: no graph is copied, no edge
    # list is built, no spanning tree is searched apart from a table row,
    # and no link is checked one by one.
    ("network/faults.py", "surviving_graph"): 0,
    ("network/graph.py", "edges"): 0,
    ("network/graph.py", "spanning_tree"): 0,
    ("network/faults.py", "link_is_up"): 0,
}

#: The same for one more timed request: measured + ~8%, and never above 690.
TIMED_CALLS_PER_REQUEST_BUDGET = 650
TIMED_FUNCTION_BUDGETS = {
    # ``ideal`` mode is all single-hop routes: nothing is left to order.
    ("simtime/kernel.py", "schedule"): 0,
    ("obs/registry.py", "_slot"): 1.5,
}
#: ``simtime/queueing.py`` outside ``acquire`` itself: the true gap fills.
QUEUEING_HELPER_BUDGET = 6


def locate_flood(operations: int) -> ScenarioSpec:
    """The ledger's ``locate_flood`` workload as a literal (master seed 22):
    a healthy ``complete:64`` network, every request a full √n locate."""
    return ScenarioSpec(
        name="locate_flood",
        topology="complete:64",
        strategy="checkerboard",
        operations=operations,
        clients=64,
        servers=8,
        ports=8,
        delivery_mode="ideal",
        seed=3834759524167989335,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=2000.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
    )


def faulted_churn(operations: int) -> ScenarioSpec:
    """The ledger's ``faulted_churn`` workload as a literal (master seed
    22): multi-hop unicast on ``manhattan:8`` under link flaps and mixed
    churn."""
    return ScenarioSpec(
        name="faulted_churn",
        topology="manhattan:8",
        strategy="manhattan",
        operations=operations,
        clients=24,
        servers=8,
        ports=4,
        delivery_mode="unicast",
        seed=1235423883733042150,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=1000.0),
        popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.7),
        churn=ChurnSpec(kind="mixed", rate=6.0),
        faults=FaultRegimeSpec(
            kind="flaps", events=10, start=0.3, period=0.5, downtime=0.3
        ),
    )


def multicast_waves(operations: int) -> ScenarioSpec:
    """Multicast on ``manhattan:6`` under crash waves: trees planned under
    faults, which ``faulted_churn`` (unicast) never asks for."""
    return ScenarioSpec(
        name="multicast_waves",
        topology="manhattan:6",
        strategy="manhattan",
        operations=operations,
        clients=10,
        servers=6,
        ports=4,
        delivery_mode="multicast",
        seed=99,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=800.0),
        faults=FaultRegimeSpec(
            kind="waves", events=4, size=3, start=0.1, period=0.3,
            downtime=0.2,
        ),
    )


def timed_burst(operations: int) -> ScenarioSpec:
    """The ledger's ``timed_burst`` workload as a literal (master seed 22):
    the E20 shape, bursts of 80 priced by the time model."""
    return ScenarioSpec(
        name="timed_burst",
        topology="complete:36",
        strategy="checkerboard",
        operations=operations,
        clients=36,
        servers=6,
        ports=6,
        delivery_mode="ideal",
        seed=7198299542289471375,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="burst", burst_size=80, burst_gap=0.05),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        time_model=TimeModelSpec(
            default_link=LinkTiming(latency=0.0005, jitter=0.0001),
            node_service=0.0008,
        ),
    )


def profiled_calls(
    spec: ScenarioSpec, retries: bool = False
) -> Tuple[int, Dict[Tuple[str, str], int]]:
    """Total calls of one ``WorkloadDriver(spec).run()`` and the calls of
    each Python function, keyed ``(package/file, function)``.  Every
    request locates exactly once unless ``retries`` allows stale ones."""
    profiler = cProfile.Profile()
    result = profiler.runcall(lambda: WorkloadDriver(spec).run())
    assert result.metrics.requests == spec.operations
    if not retries:
        assert result.metrics.locates == spec.operations
    total = 0
    per_function: Dict[Tuple[str, str], int] = Counter()
    for entry in profiler.getstats():
        total += entry.callcount
        code = entry.code
        if isinstance(code, str):  # a C function
            continue
        key = ("/".join(PurePath(code.co_filename).parts[-2:]), code.co_name)
        per_function[key] += entry.callcount
    return total, per_function


def marginal_calls(
    scenario: Callable[[int], ScenarioSpec]
) -> Tuple[float, Dict[Tuple[str, str], float]]:
    """What one more request of ``scenario`` costs: in total and per
    Python function."""
    small_total, small = profiled_calls(scenario(500))
    large_total, large = profiled_calls(scenario(1_500))
    return (large_total - small_total) / 1_000, {
        key: (large[key] - small[key]) / 1_000 for key in large
    }


def assert_inside(name, per_request, per_function, budget, function_budgets):
    assert per_request <= budget, (
        f"one more {name} request costs {per_request:.1f} calls "
        f"(budget {budget})"
    )
    for key, allowed in function_budgets.items():
        spent = per_function.get(key, 0.0)
        assert spent <= allowed, (
            f"{key[0]}:{key[1]} is called {spent:.2f} times per request "
            f"(budget {allowed})"
        )


def test_marginal_request_cost_stays_inside_the_call_budget():
    per_request, per_function = marginal_calls(locate_flood)
    assert_inside(
        "locate_flood", per_request, per_function,
        CALLS_PER_REQUEST_BUDGET, FUNCTION_BUDGETS,
    )


def test_marginal_faulted_request_cost_stays_inside_the_call_budget():
    per_request, per_function = marginal_calls(faulted_churn)
    assert_inside(
        "faulted_churn", per_request, per_function,
        FAULTED_CALLS_PER_REQUEST_BUDGET, FAULTED_FUNCTION_BUDGETS,
    )


def test_multicast_trees_under_faults_are_table_rows():
    # The longer run spans more fault revisions and plans more trees; set-up
    # (topology checks, timeline building) costs both runs the same.
    _, short = profiled_calls(multicast_waves(300), retries=True)
    _, long = profiled_calls(multicast_waves(900), retries=True)
    tree = ("network/delivery.py", "spanning_tree")
    assert long[tree] > short[tree]
    for key in (
        ("network/graph.py", "spanning_tree"),
        ("network/graph.py", "edges"),
        ("network/faults.py", "surviving_graph"),
    ):
        assert long.get(key, 0) == short.get(key, 0), key


def test_marginal_timed_request_cost_stays_inside_the_call_budget():
    per_request, per_function = marginal_calls(timed_burst)
    assert_inside(
        "timed_burst", per_request, per_function,
        TIMED_CALLS_PER_REQUEST_BUDGET, TIMED_FUNCTION_BUDGETS,
    )
    # One ``acquire`` per queue visit and nothing under it but a gap fill.
    assert per_function[("simtime/queueing.py", "acquire")] > 10
    helpers = sum(
        spent for (path, function), spent in per_function.items()
        if path == "simtime/queueing.py" and function != "acquire"
    )
    assert helpers <= QUEUEING_HELPER_BUDGET, (
        f"simtime/queueing.py spends {helpers:.2f} calls per request outside "
        f"acquire (budget {QUEUEING_HELPER_BUDGET})"
    )
