"""A deterministic call budget for the untimed request path.

The perf ledger (``benchmarks/ledger``) measures what a request costs the
host; this guard keeps the part of that measurement that repeats exactly —
Python/C function calls per request under ``cProfile`` — inside tier-1, so
a refactor that re-adds a per-node call or a per-message ``bump`` fails the
push and not the next ledger run.

The cost is *marginal*: the same scenario at 500 and at 1 500 requests, the
difference divided by 1 000, so set-up (topology, routing tables, placement)
cancels out.  Measured this way (Python 3.11) the parent of the PR that
added this file cost 222.9 calls/request, 21 of them ``CounterMap.bump``
and 6 ``Network.node_is_up``; the PR 161.9, 0 and 1.  The budget's
head-room covers the spread between Python 3.10 and 3.12.
"""

import cProfile
from pathlib import PurePath
from typing import Dict, Tuple

from repro.workload import ArrivalSpec, PopularitySpec, ScenarioSpec, WorkloadDriver

#: Calls one more request may cost, set-up excluded.
CALLS_PER_REQUEST_BUDGET = 180
#: ``(file, function) -> calls`` one more request may spend there.
FUNCTION_BUDGETS = {
    ("obs/registry.py", "bump"): 1,
    ("network/simulator.py", "node_is_up"): 2,
}


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


def profiled_calls(operations: int) -> Tuple[int, Dict[Tuple[str, str], int]]:
    """Total calls of one ``WorkloadDriver(spec).run()`` and the calls of
    each budgeted function."""
    spec = locate_flood(operations)
    profiler = cProfile.Profile()
    result = profiler.runcall(lambda: WorkloadDriver(spec).run())
    assert result.metrics.requests == operations
    assert result.metrics.locates == operations  # every request locates
    total = 0
    per_function = dict.fromkeys(FUNCTION_BUDGETS, 0)
    for entry in profiler.getstats():
        total += entry.callcount
        code = entry.code
        if isinstance(code, str):  # a C function
            continue
        key = ("/".join(PurePath(code.co_filename).parts[-2:]), code.co_name)
        if key in per_function:
            per_function[key] += entry.callcount
    return total, per_function


def test_marginal_request_cost_stays_inside_the_call_budget():
    small_total, small = profiled_calls(500)
    large_total, large = profiled_calls(1_500)
    per_request = (large_total - small_total) / 1_000
    assert per_request <= CALLS_PER_REQUEST_BUDGET, (
        f"one more locate_flood request costs {per_request:.1f} calls "
        f"(budget {CALLS_PER_REQUEST_BUDGET})"
    )
    for key, budget in FUNCTION_BUDGETS.items():
        spent = (large[key] - small[key]) / 1_000
        assert spent <= budget, (
            f"{key[0]}:{key[1]} is called {spent:.2f} times per request "
            f"(budget {budget})"
        )
