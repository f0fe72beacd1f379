"""The scenario-matrix engine: expansion, shared networks, reports, replay.

Pins the three engine guarantees: incompatible cells are skipped loudly,
cells on a shared (reset) network produce byte-identical results to cells on
fresh networks, and a recorded matrix cell replays to the exact same
``WorkloadResult`` dict — fault timeline included.
"""

import inspect
import json
import random
import re
from dataclasses import replace

import pytest

from repro.codec import decode, encode
from repro.exec import CellKeyer, IncrementalRunner, run_matrix_parallel
from repro.exec.runner import ShardPayload
from repro.network.simulator import Network
from repro.topologies import ManhattanTopology
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    ScenarioSpec,
    Trace,
    WorkloadDriver,
    build_fault_timeline,
    build_topology,
    replay_trace,
    run_matrix,
    run_scenario,
)

BASE = ScenarioSpec(
    operations=150,
    clients=4,
    servers=4,
    ports=2,
    delivery_mode="unicast",
    seed=5,
    arrival=ArrivalSpec(kind="poisson", rate=300.0),
)

REGIMES = (
    FaultRegimeSpec(),
    FaultRegimeSpec(kind="waves", events=2, size=1, start=0.1, period=0.2,
                    downtime=0.1),
    FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                    downtime=0.1),
)


def small_matrix(**overrides) -> MatrixSpec:
    settings = dict(
        name="unit",
        topologies=("complete:9", "manhattan:3"),
        strategies=("checkerboard", "manhattan"),
        fault_regimes=REGIMES,
        base=BASE,
    )
    settings.update(overrides)
    return MatrixSpec(**settings)


class TestFaultRegimeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRegimeSpec(kind="comet")
        with pytest.raises(ValueError):
            FaultRegimeSpec(kind="waves", events=0)
        with pytest.raises(ValueError):
            FaultRegimeSpec(kind="waves", downtime=0.0)

    def test_labels(self):
        assert FaultRegimeSpec().label == "none"
        assert FaultRegimeSpec(kind="waves", events=3, size=2).label == \
            "waves(e3,s2)"

    def test_scenario_spec_round_trip(self):
        spec = ScenarioSpec(faults=FaultRegimeSpec(kind="flaps", events=4))
        rebuilt = decode(ScenarioSpec, json.loads(json.dumps(encode(spec))))
        assert rebuilt == spec

    def test_legacy_spec_dicts_default_to_no_faults(self):
        payload = encode(ScenarioSpec())
        del payload["faults"]  # a pre-fault-regime trace header
        assert decode(ScenarioSpec, payload).faults == FaultRegimeSpec()


class TestMatrixExpansion:
    def test_incompatible_cells_skipped_loudly(self):
        cells, skipped = small_matrix().expand()
        # manhattan routing cannot run on the complete graph.
        assert {(s["topology"], s["strategy"]) for s in skipped} == {
            ("complete:9", "manhattan")
        }
        assert len(cells) == 3 * len(REGIMES)  # 4 pairs - 1 skipped

    def test_cell_names_encode_coordinates(self):
        cells, _ = small_matrix().expand()
        names = {cell.spec.name for cell in cells}
        assert "unit/manhattan:3/manhattan/none" in names
        assert "unit/complete:9/checkerboard/waves(e2,s1)" in names
        assert len(names) == len(cells)  # no collisions

    def test_duplicate_regime_labels_uniquified(self):
        twin = FaultRegimeSpec(kind="flaps", events=2, start=0.1, period=0.2,
                               downtime=0.1)
        cells, _ = small_matrix(
            topologies=("complete:9",),
            strategies=("checkerboard",),
            fault_regimes=(twin, twin),
        ).expand()
        assert sorted(cell.regime for cell in cells) == [
            "flaps(e2)#0", "flaps(e2)#1"
        ]

    def test_model_axes_multiply_and_name(self):
        matrix = small_matrix(
            topologies=("complete:9",),
            strategies=("checkerboard",),
            fault_regimes=(FaultRegimeSpec(),),
            churns=(ChurnSpec(), ChurnSpec(kind="migration", rate=1.0)),
        )
        cells, _ = matrix.expand()
        assert len(cells) == 2
        assert {cell.spec.name.rsplit("/", 1)[-1] for cell in cells} == \
            {"c0", "c1"}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            small_matrix(strategies=())

    def test_matrix_spec_round_trips_through_json(self):
        matrix = small_matrix(churns=(ChurnSpec(),
                                      ChurnSpec(kind="migration", rate=1.0)))
        rebuilt = decode(MatrixSpec, json.loads(json.dumps(matrix.to_dict())))
        assert rebuilt == matrix
        assert [c.spec for c in rebuilt.expand()[0]] == \
            [c.spec for c in matrix.expand()[0]]

    def test_matrix_spec_rejects_unknown_keys(self):
        payload = small_matrix().to_dict()
        payload["topologys"] = payload.pop("topologies")  # the typo case
        with pytest.raises(ValueError, match="unknown MatrixSpec key"):
            decode(MatrixSpec, payload)

    def test_misspelled_strategy_is_rejected_not_skipped(self):
        # Only a real topology mismatch is "incompatible"; a typo is bad input.
        with pytest.raises(ValueError, match="unknown strategy 'checkerbaord'"):
            small_matrix(strategies=("checkerboard", "checkerbaord")).expand()

    @pytest.mark.parametrize("key, value", [
        ("strategies", "centralized"), ("topologies", "complete:16"),
    ])
    def test_a_string_axis_is_rejected_naming_key_and_value(self, key, value):
        payload = small_matrix().to_dict()
        payload[key] = value  # would iterate as one-letter names
        with pytest.raises(
            ValueError,
            match=re.escape(f"MatrixSpec.{key} must be a list, got str '{value}'"),
        ):
            decode(MatrixSpec, payload)

    def test_matrix_spec_names_unknown_keys_inside_an_axis_entry(self):
        payload = small_matrix().to_dict()
        payload["fault_regimes"] = [{"kind": "flaps", "perod": 0.5}]
        with pytest.raises(ValueError, match=r"FaultRegimeSpec key\(s\) \['perod'\]"):
            decode(MatrixSpec, payload)

    def test_cell_seeds_derive_from_coordinates(self):
        cells, _ = small_matrix().expand()
        seeds = {cell.spec.seed for cell in cells}
        assert len(seeds) == len(cells)  # one independent stream per cell
        # and they are reproducible, not draw-order dependent:
        assert [c.spec.seed for c in small_matrix().expand()[0]] == \
            [c.spec.seed for c in cells]


class TestSharedNetworks:
    def test_driver_rejects_mismatched_network(self):
        network = Network(ManhattanTopology.square(4).graph)
        with pytest.raises(ValueError, match="does not match"):
            WorkloadDriver(BASE, network=network)

    def test_driver_rejects_same_nodes_wrong_edges(self):
        # ring:16 and complete:16 share node ids {0..15} but route
        # completely differently; node identity alone must not pass.
        spec = ScenarioSpec(**{**encode(BASE), "topology": "complete:16",
                               "arrival": BASE.arrival,
                               "popularity": BASE.popularity,
                               "churn": BASE.churn, "faults": BASE.faults})
        ring = build_topology("ring:16").build_network()
        with pytest.raises(ValueError, match="does not match"):
            WorkloadDriver(spec, network=ring)

    def test_a_used_then_reset_network_of_the_topology_is_accepted(self):
        spec = replace(BASE, topology="ring:16", faults=REGIMES[2])
        shared = build_topology("ring:16").build_network()
        WorkloadDriver(spec, network=shared).run()
        shared.reset_for_reuse()
        rerun = WorkloadDriver(spec, network=shared).run()
        assert rerun.to_dict() == run_scenario(spec).to_dict()
        complete = build_topology("complete:16").build_network()
        with pytest.raises(ValueError) as raised:
            WorkloadDriver(spec, network=complete)
        assert str(raised.value) == (
            "shared network (n=16) does not match topology 'ring:16'"
        )

    def test_reset_for_reuse_restores_pristine_state(self):
        network = Network(ManhattanTopology.square(3).graph,
                          delivery_mode="unicast")
        network.crash_node((1, 1))
        network.fail_link((0, 0), (0, 1))
        network.deliver((0, 0), frozenset({(2, 2)}), "post", mode="unicast")
        network.next_timestamp()
        assert network.next_timestamp() == 2
        network.reset_for_reuse()
        assert network.node_is_up((1, 1))
        assert network.planner.routing_table() is network.routing  # no fault active
        assert network.stats.messages == {}
        assert network.stats.plan_events == {}
        assert network.next_timestamp() == 1
        assert all(size == 0 for size in network.cache_sizes().values())

    def test_matrix_results_match_fresh_runs(self):
        matrix = small_matrix(topologies=("manhattan:3",))
        report, results = run_matrix(matrix, keep_results=True)
        cells, _ = matrix.expand()
        assert len(results) == len(cells)
        for cell, shared in zip(cells, results):
            assert run_scenario(cell.spec).to_dict() == shared.to_dict()

    @pytest.mark.parametrize("owner", [
        run_matrix, run_matrix_parallel, ShardPayload, CellKeyer,
        IncrementalRunner,
    ], ids=lambda owner: owner.__name__)
    def test_sharing_is_not_optional(self, owner):
        # Every matrix run shares one network per topology; what pins that
        # equal to fresh runs is test_matrix_results_match_fresh_runs.
        assert "share_networks" not in inspect.signature(owner).parameters


class TestReplayDeterminism:
    """Satellite: recorded matrix cells replay byte-for-byte, faults and
    all."""

    @pytest.mark.parametrize("regime", REGIMES[1:], ids=lambda r: r.kind)
    def test_cell_replay_reproduces_result_dict(self, regime, tmp_path):
        spec = BASE
        spec = ScenarioSpec(**{**encode(spec), "name": "replay",
                               "topology": "manhattan:3",
                               "strategy": "manhattan",
                               "arrival": spec.arrival,
                               "popularity": spec.popularity,
                               "churn": ChurnSpec(kind="failover", rate=2.0),
                               "faults": regime})
        original = run_scenario(spec)
        assert original.metrics.fault_events or \
            original.metrics.churn_events  # the timeline actually ran
        path = tmp_path / "cell.jsonl"
        original.trace.to_path(path)
        replayed = replay_trace(Trace.from_path(path))
        assert json.dumps(replayed.to_dict(), sort_keys=True) == \
            json.dumps(original.to_dict(), sort_keys=True)

    def test_timeline_node_events_meter_as_faults_not_churn(self):
        """Regime crashes land in fault_events; churn_events stays owned by
        the churn model — and the split survives replay."""
        spec = ScenarioSpec(
            **{**encode(BASE), "name": "split", "topology": "manhattan:3",
               "strategy": "manhattan", "arrival": BASE.arrival,
               "popularity": BASE.popularity, "churn": BASE.churn,
               "faults": REGIMES[1]})  # waves, no churn model
        result = run_scenario(spec)
        assert result.metrics.churn_events == {}
        assert result.metrics.fault_events.get("fault_crash", 0) >= 1
        assert result.metrics.fault_events.get("fault_recover", 0) >= 1
        replayed = replay_trace(result.trace)
        assert replayed.metrics.fault_events == result.metrics.fault_events

    def test_fault_timeline_materialization_is_seeded(self):
        graph = ManhattanTopology.square(3).graph
        regime = FaultRegimeSpec(kind="waves", events=2, size=2,
                                 start=0.1, period=0.3, downtime=0.2)
        a = build_fault_timeline(regime, graph, random.Random("x"))
        b = build_fault_timeline(regime, graph, random.Random("x"))
        assert list(a) == list(b)


class TestMatrixReport:
    @pytest.fixture(scope="class")
    def report(self):
        report, _ = run_matrix(small_matrix())
        return report

    def test_aggregations_cover_every_axis(self, report):
        by_strategy = report.by_strategy()
        assert set(by_strategy) == {"checkerboard", "manhattan"}
        assert set(report.by_regime()) == {
            "none", "waves(e2,s1)", "flaps(e2)"
        }
        for aggregate in by_strategy.values():
            assert 0.0 <= aggregate["availability"] <= 1.0
            assert aggregate["requests"] == aggregate["cells"] * BASE.operations
            assert 0.0 <= aggregate["plan_hit_rate"] <= 1.0

    def test_availability_floor_is_worst_cell(self, report):
        assert report.availability_floor() == min(
            cell.availability for cell in report.cells
        )

    def test_table_has_one_row_per_cell(self, report):
        rows = report.table()
        assert len(rows) == len(report)
        for row in rows:
            assert {"topology", "strategy", "regime", "ok%"} <= set(row)

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.to_path(path)
        written = json.loads(path.read_text())
        assert written == json.loads(json.dumps(report.to_dict()))
        assert json.loads(path.read_text())["availability_floor"] == \
            report.to_dict()["availability_floor"]
