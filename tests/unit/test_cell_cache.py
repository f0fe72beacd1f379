"""The content-addressed cell cache: keys, store, tolerance, chaining.

The cache's one safety property is that it can never change a report: a
key must move whenever *anything* that affects a cell's result moves
(spec field, seed, schema version, warm-up prefix), and a damaged entry
must read as a miss — counted, never fatal, never served.  Everything
here runs against a plain temp directory; the end-to-end digest parity
lives in ``tests/integration/test_incremental_matrix.py``.
"""

import dataclasses
import errno
import json
from unittest import mock

import pytest

from repro.exec import (
    CACHE_SCHEMA_VERSION,
    CellCache,
    CellKeyer,
    spec_fingerprint,
)
from repro.exec.cache import canonical_cell_payload, merge_cache_stats
from repro.obs.registry import MetricsRegistry
from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    CellResult,
    ChurnSpec,
    FaultRegimeSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
)
from repro.workload.matrix import MatrixCell

BASE = ScenarioSpec(
    operations=50, clients=3, servers=3, ports=2,
    delivery_mode="unicast", seed=13,
    arrival=ArrivalSpec(kind="poisson", rate=300.0),
)


def cell(**overrides) -> MatrixCell:
    settings = dict(
        spec=BASE, topology="complete:9", strategy="checkerboard",
        regime="none", key="complete:9/checkerboard/none",
    )
    settings.update(overrides)
    return MatrixCell(**settings)


def first_key(
    target: MatrixCell, schema_version: int = CACHE_SCHEMA_VERSION
) -> str:
    """``target``'s key as the first cell of its topology (empty chain)."""
    return CellKeyer(schema_version).key(target)


def result(hits=2) -> CellResult:
    return CellResult(
        topology="complete:9", strategy="checkerboard", regime="none",
        summary={"requests": 5, "successes": 5},
        plan_cache={"plan_hit": hits}, wall_seconds=0.25,
    )


class TestKeySensitivity:
    def test_key_is_stable_for_identical_cells(self):
        assert first_key(cell()) == first_key(cell())

    def test_keys_are_pinned_so_existing_cache_dirs_stay_valid(self):
        # Literal values from the commit that introduced schema version 1:
        # any change to how keys are hashed must either reproduce them or
        # bump CACHE_SCHEMA_VERSION.
        assert CACHE_SCHEMA_VERSION == 1
        first = cell()
        second = cell(
            strategy="centralized", key="complete:9/centralized/none"
        )
        assert spec_fingerprint(first) == (
            "c9c248928aa91264246ea3e9c4b459a53a4dfea0bb63bb943da488b94b8244ef"
        )
        keyer = CellKeyer()
        assert keyer.key(first) == (
            "47b456bfb1634235a07cac70be2b57fff02adde48bfc8237e7b5f5f6b521eb63"
        )
        assert keyer.key(second) == (
            "029210af553985f7da1c747ae6c4b127ef11354bb24456b6ef5ce92ea8b1b5a0"
        )

    @pytest.mark.parametrize("field_name,value", [
        ("operations", 51),
        ("clients", 4),
        ("servers", 4),
        ("ports", 3),
        ("seed", 14),
        ("delivery_mode", "broadcast"),
    ])
    def test_any_spec_field_moves_the_key(self, field_name, value):
        edited = dataclasses.replace(BASE, **{field_name: value})
        assert first_key(cell(spec=edited)) != first_key(cell())

    def test_nested_model_specs_move_the_key(self):
        edited = dataclasses.replace(
            BASE, arrival=ArrivalSpec(kind="poisson", rate=301.0)
        )
        assert first_key(cell(spec=edited)) != first_key(cell())

    @pytest.mark.parametrize("coordinate,value", [
        ("topology", "manhattan:3"),
        ("strategy", "centralized"),
        ("regime", "waves"),
        ("key", "elsewhere"),
    ])
    def test_grid_coordinates_move_the_key(self, coordinate, value):
        assert first_key(cell(**{coordinate: value})) != \
            first_key(cell())

    def test_schema_bump_orphans_every_key(self):
        assert first_key(cell()) != \
            first_key(cell(), schema_version=CACHE_SCHEMA_VERSION + 1)

    def test_chain_participates_in_the_key(self):
        # The second call's chain is the digest of this cell's own
        # fingerprint; only the chain moved between the two calls.
        keyer = CellKeyer()
        assert keyer.key(cell()) != keyer.key(cell())

    def test_fingerprint_is_canonical_json_sha256(self):
        # 64 lowercase hex chars; stable across calls.
        fp = spec_fingerprint(cell())
        assert len(fp) == 64
        assert fp == spec_fingerprint(cell())
        assert set(fp) <= set("0123456789abcdef")


#: A spec with every optional part set and every model part off its default.
TIMED = ScenarioSpec(
    name="timed/complete:9/checkerboard/waves(e3,s2)", topology="complete:9",
    operations=40, clients=3, servers=3, ports=2, delivery_mode="unicast",
    seed=29,
    arrival=ArrivalSpec(kind="burst", burst_size=8, burst_gap=0.05),
    popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.6,
                              hotspot_interval=0.25),
    churn=ChurnSpec(kind="mixed", rate=4.0, downtime=0.2, storm_fraction=0.5),
    faults=FaultRegimeSpec(kind="waves", events=3, size=2, start=0.1,
                           period=0.2, downtime=0.15),
    time_model=TimeModelSpec(
        default_link=LinkTiming(latency=0.0005, jitter=0.0001, capacity=2),
        link_overrides=(("0<->1", LinkTiming(latency=0.004)),),
        node_service=0.0008, node_overrides=(("3", 0.002),), timeout=0.05,
    ),
    slo=SloSpec(latency_objective=0.02, latency_target=0.95,
                availability_target=0.99, window=0.25),
)


class TestTimedCellKeys:
    def test_to_dict_matches_the_asdict_form(self):
        # The form to_dict had when it was built by dataclasses.asdict:
        # same keys, same values, same order at every level.
        expected = dataclasses.asdict(TIMED)
        expected["time_model"] = TIMED.time_model.to_dict()
        assert TIMED.to_dict() == expected
        assert json.dumps(TIMED.to_dict()) == json.dumps(expected)

    def test_timed_keys_are_pinned(self):
        # Literals computed when ScenarioSpec.to_dict still used asdict.
        timed = cell(spec=TIMED, regime="waves(e3,s2)",
                     key="complete:9/checkerboard/waves(e3,s2)")
        assert spec_fingerprint(timed) == (
            "f595193873b079410bfdc4256570f5e9625a24f521ec7033d82e3e259ad05416"
        )
        assert first_key(timed) == (
            "cb06518b297cda71a672aabf4313404bfd4c311e4a4684c2b98e81d5ec432084"
        )


class TestCellKeyer:
    def test_same_topology_predecessors_chain_the_key(self):
        first, second = cell(), cell(strategy="centralized")
        keyer = CellKeyer()
        assert keyer.key(first) == first_key(first)
        # second's key now folds in first's fingerprint: a pure per-cell
        # key would wrongly hit even after first's spec changed.
        assert keyer.key(second) != first_key(second)

    def test_chains_are_per_topology(self):
        other = cell(topology="manhattan:3")
        keyer = CellKeyer()
        keyer.key(cell())  # warms only complete:9's chain
        assert keyer.key(other) == first_key(other)

    def test_editing_a_predecessor_moves_every_later_key(self):
        edited = cell(spec=dataclasses.replace(BASE, operations=51))
        tail = cell(strategy="centralized")
        warm = CellKeyer()
        warm.key(cell())
        moved = CellKeyer()
        moved.key(edited)
        assert warm.key(tail) != moved.key(tail)


class TestCellCache:
    def test_round_trip(self, tmp_path):
        cache = CellCache(tmp_path)
        key = first_key(cell())
        path = cache.store(key, result())
        assert path == tmp_path / key[:2] / f"{key}.json"
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.to_dict() == result().to_dict()
        assert cache.stats() == {
            "hits": 1, "misses": 0, "stale": 0, "corrupt": 0,
            "stored": 1, "warmups": 0,
        }

    def test_absent_key_is_a_counted_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_wrong_schema_version_reads_as_stale(self, tmp_path):
        key = first_key(cell())
        CellCache(tmp_path).store(key, result())
        future = CellCache(tmp_path, schema_version=CACHE_SCHEMA_VERSION + 1)
        assert future.load(key) is None
        assert future.stats()["stale"] == 1

    def test_key_mismatch_inside_payload_reads_as_stale(self, tmp_path):
        # A renamed/copied entry file: content keyed for another address.
        cache = CellCache(tmp_path)
        stored = cache.store(first_key(cell()), result())
        imposter = "f" * 64
        target = cache.path_for(imposter)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(stored.read_text())
        assert cache.load(imposter) is None
        assert cache.stats()["stale"] == 1

    def test_undecodable_json_reads_as_corrupt(self, tmp_path):
        cache = CellCache(tmp_path)
        key = first_key(cell())
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"schema": 1, "key": ')
        assert cache.load(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_malformed_cell_payload_reads_as_corrupt(self, tmp_path):
        cache = CellCache(tmp_path)
        key = first_key(cell())
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "key": key, "cell": {"nope": 1}}
        ))
        assert cache.load(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_store_is_atomic_and_leaves_no_temp_litter(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.store(first_key(cell()), result())
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_a_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        import repro.exec.cache as cache_module

        disk_full = mock.Mock(side_effect=OSError(errno.ENOSPC, "disk full"))
        monkeypatch.setattr(cache_module.json, "dump", disk_full)
        cache, key = CellCache(tmp_path), first_key(cell())
        with pytest.raises(OSError) as raised:
            cache.store(key, result())
        assert raised.value.errno == errno.ENOSPC
        assert list(tmp_path.rglob("*.tmp")) == []
        monkeypatch.undo()
        assert cache.load(key) is None
        assert cache.stats()["misses"] == 1 and cache.stats()["stored"] == 0

    def test_last_write_wins_on_rewrite(self, tmp_path):
        cache = CellCache(tmp_path)
        key = first_key(cell())
        cache.store(key, result(hits=2))
        cache.store(key, result(hits=9))
        assert cache.load(key).plan_cache == {"plan_hit": 9}

    def test_counters_flow_through_a_shared_registry(self, tmp_path):
        registry = MetricsRegistry()
        cache = CellCache(tmp_path, registry=registry)
        cache.store(first_key(cell()), result())
        assert registry.counter("cache_stored").value == 1


class TestHelpers:
    def test_merge_cache_stats_is_additive(self):
        totals = {"hits": 1}
        merge_cache_stats(totals, {"hits": 2, "misses": 3})
        assert totals == {"hits": 3, "misses": 3}

    def test_canonical_cell_payload_drops_only_the_wall_clock(self):
        fast, slow = result(), result()
        slow = dataclasses.replace(slow, wall_seconds=99.0)
        assert canonical_cell_payload(fast) == canonical_cell_payload(slow)
        assert "wall_seconds" not in canonical_cell_payload(fast)
        assert canonical_cell_payload(fast)["plan_cache"] == {"plan_hit": 2}
