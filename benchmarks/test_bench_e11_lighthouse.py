"""E11 — Section 4: Lighthouse Locate.

The beam schedules (doubling and the ruler sequence 1 2 1 3 1 2 1 4 ...), the
effect of server density on client effort, and trail evaporation, all on a
grid network using the paper's reverse-path-forwarding beams.
"""

import random
import statistics

from repro.core.types import Port
from repro.strategies import DoublingSchedule, LighthouseLocate, RulerSchedule
from repro.topologies import ManhattanTopology

PORT = Port("lighthouse-bench")
SIDE = 10
CLIENTS = ((0, 0), (9, 0), (0, 9), (5, 5))


def run_density_sweep(schedule_factory, densities=(1, 4, 10), seed=13):
    rows = []
    for server_count in densities:
        trials_needed = []
        messages = []
        found_count = 0
        for client_index, client in enumerate(CLIENTS):
            topology = ManhattanTopology.square(SIDE)
            network = topology.build_network()
            lighthouse = LighthouseLocate(
                network,
                server_beam_length=3,
                server_period=2,
                trail_ttl=8,
                schedule=schedule_factory(),
                seed=seed + client_index,
            )
            rng = random.Random(seed + server_count * 31 + client_index)
            for _ in range(server_count):
                lighthouse.add_server(rng.choice(topology.nodes()), PORT)
            result = lighthouse.locate(client, PORT, max_trials=200)
            found_count += result.found
            if result.found:
                trials_needed.append(result.trials)
                messages.append(result.client_messages)
        rows.append(
            {
                "servers": server_count,
                "found": found_count,
                "clients": len(CLIENTS),
                "mean_trials": statistics.mean(trials_needed) if trials_needed else None,
                "mean_client_messages": statistics.mean(messages) if messages else None,
            }
        )
    return rows


def run_lighthouse_experiment():
    return {
        "ruler_prefix": RulerSchedule.sequence_prefix(16),
        "doubling": run_density_sweep(lambda: DoublingSchedule(1, escalate_after=2)),
        "ruler": run_density_sweep(lambda: RulerSchedule(base_length=2)),
    }


def test_bench_e11_lighthouse_locate():
    results = run_lighthouse_experiment()

    # The ruler schedule is exactly the paper's sequence 51.
    assert results["ruler_prefix"] == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5]

    for schedule_name in ("doubling", "ruler"):
        rows = results[schedule_name]
        # With enough servers around, every client finds one.
        assert rows[-1]["found"] == rows[-1]["clients"]
        # Denser services are found in no more trials than sparse ones.
        found_rows = [row for row in rows if row["mean_trials"] is not None]
        assert len(found_rows) >= 2
        assert found_rows[-1]["mean_trials"] <= found_rows[0]["mean_trials"]
