"""PYTHONHASHSEED differential: digests must not feel the hash seed.

Python randomizes string hashing per process: any digest-affecting code
that iterates an unordered set or leans on ``hash()`` produces different
bytes under different seeds.  This test runs the same seeded workload in
fresh subprocesses under ``PYTHONHASHSEED=0``, ``1``, ``31337`` and
``random``, and requires the result digest, trace digest and a rendezvous
load distribution to be identical everywhere — for a small healthy run,
for a ``faulted_churn``-shaped unicast run over string-bearing node ids,
where a locate's responders come out of a set intersection, and for the
order of a two-server query's records on ``hypercube:5``, whose node ids
are strings (pinned under the key ``collect_all``).  The golden entry
``hashseed`` in ``tests/golden/parity.json`` additionally freezes today's
digests so *any* future nondeterminism — not just cross-seed drift — fails
loudly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "parity.json"

#: The outcome keys pinned in ``tests/golden/parity.json`` (entry
#: ``hashseed``).  They only move when the simulator's observable behavior
#: genuinely changes, which must be a deliberate, reviewed event.
PINNED_KEYS = (
    "result_digest", "trace_digest", "faulted_result_digest",
    "faulted_trace_digest", "faulted_plan_cache", "collect_all",
)

WORKLOAD = """
import json, sys
from repro.core.matchmaker import MatchMaker
from repro.core.types import Port
from repro.strategies import HypercubeStrategy
from repro.strategies.hash_locate import HashLocateStrategy
from repro.topologies import HypercubeTopology
from repro.workload import (
    ArrivalSpec, ChurnSpec, FaultRegimeSpec, PopularitySpec, ScenarioSpec,
    run_scenario,
)

spec = ScenarioSpec(
    name="hashseed-diff", topology="manhattan:3", strategy="manhattan",
    operations=40, clients=3, servers=3, ports=2,
    delivery_mode="unicast", seed=17,
    arrival=ArrivalSpec(kind="poisson", rate=300.0),
)
result = run_scenario(spec)
# The ledger's faulted_churn shape on node ids that hash by seed (tuples
# holding strings): a locate answers from holders(port) & reached in
# reached's own order, and several rendezvous nodes answer at once.
faulted = run_scenario(ScenarioSpec(
    name="hashseed-faulted", topology="ccc:3", strategy="ccc",
    operations=150, clients=6, servers=6, ports=2,
    delivery_mode="unicast", seed=23, cache_addresses=False,
    arrival=ArrivalSpec(kind="poisson", rate=300.0),
    popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.7),
    churn=ChurnSpec(kind="mixed", rate=6.0),
    faults=FaultRegimeSpec(
        kind="flaps", events=4, start=0.05, period=0.1, downtime=0.06
    ),
))
strategy = HashLocateStrategy([f"n{i}" for i in range(5)], replicas=2)
load = strategy.load_distribution([Port(f"p{i}") for i in range(4)])
# Two servers answer one query: the records come back in responder order.
cube = HypercubeTopology(5)
network = cube.build_network()
matchmaker = MatchMaker(network, HypercubeStrategy(cube))
nodes = cube.nodes()
for node in (nodes[3], nodes[22]):
    matchmaker.register_server(node, Port("p"))
records = network.query(nodes[9], Port("p"), matchmaker.query_set(nodes[9])).records
print(json.dumps({
    "result_digest": result.digest(),
    "trace_digest": result.trace.digest(),
    "faulted_result_digest": faulted.digest(),
    "faulted_trace_digest": faulted.trace.digest(),
    "faulted_plan_cache": faulted.plan_cache,
    "load": {str(node): count for node, count in sorted(load.items())},
    # The key keeps the name the golden file pins it under.
    "collect_all": [record.server_id for record in records],
}, sort_keys=True))
"""


def run_under_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC_DIR
    proc = subprocess.run(
        [sys.executable, "-c", WORKLOAD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHashSeedDifferential:
    def test_digests_are_hash_seed_invariant(self):
        outcomes = {
            seed: run_under_seed(seed)
            for seed in ("0", "1", "31337", "random")
        }
        baseline = outcomes["0"]
        for seed, outcome in outcomes.items():
            assert outcome == baseline, (
                f"PYTHONHASHSEED={seed} moved the workload's observable "
                f"output relative to seed 0"
            )

    def test_digests_match_the_pinned_constants(self):
        outcome = run_under_seed("0")
        pinned = json.loads(GOLDEN.read_text())["hashseed"]
        for key in PINNED_KEYS:
            assert outcome[key] == pinned[key], key
