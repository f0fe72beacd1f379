"""The execution plan, seed derivation, spool format and progress sink.

Everything the parallel engine's determinism rests on, pinned in
isolation: stable per-cell seeds (process- and order-independent), topology
affinity (no topology ever splits across shards, order inside a shard is
grid expansion order), deterministic packing, and a spool format that
tolerates torn tails and merges purely by position.
"""

import io
import json

import pytest

from repro.codec import encode
from repro.exec import (
    ExecutionPlan,
    ProgressReporter,
    SpoolCursor,
    SpoolError,
    dump_spool_line,
    load_spool,
    shard_spool_path,
)
from repro.exec.plan import resolve_workers
from repro.exec.progress import format_seconds
from repro.workload import (
    ArrivalSpec,
    CellResult,
    MatrixSpec,
    ScenarioSpec,
    stable_seed,
)

BASE = ScenarioSpec(
    operations=50, clients=3, servers=3, ports=2,
    delivery_mode="unicast", seed=13,
    arrival=ArrivalSpec(kind="poisson", rate=300.0),
)


def grid(**overrides) -> MatrixSpec:
    settings = dict(
        name="plan",
        topologies=("complete:9", "manhattan:3", "ring:8", "hypercube:3"),
        strategies=("checkerboard", "centralized", "hash-locate"),
        base=BASE,
    )
    settings.update(overrides)
    return MatrixSpec(**settings)


class TestStableSeeds:
    def test_known_value_pins_cross_process_stability(self):
        # sha256("13/a")[:8] >> 1 — a fixed constant: any drift here silently
        # invalidates every recorded trace's seed, so it is pinned exactly.
        assert stable_seed(13, "a") == 4308863810371045580

    def test_cells_get_distinct_order_free_seeds(self):
        cells, _ = grid().expand()
        seeds = [cell.spec.seed for cell in cells]
        assert len(set(seeds)) == len(seeds)  # no two cells share streams
        again, _ = grid().expand()
        assert seeds == [cell.spec.seed for cell in again]

    def test_seed_derives_from_coordinates_not_matrix_name(self):
        renamed, _ = grid(name="renamed").expand()
        original, _ = grid().expand()
        assert [cell.spec.seed for cell in renamed] == \
            [cell.spec.seed for cell in original]

    def test_master_seed_still_matters(self):
        reseeded, _ = grid(base=ScenarioSpec(**{**encode(BASE),
                                                "seed": 14,
                                                "arrival": BASE.arrival,
                                                "popularity": BASE.popularity,
                                                "churn": BASE.churn,
                                                "faults": BASE.faults})).expand()
        original, _ = grid().expand()
        assert all(
            a.spec.seed != b.spec.seed for a, b in zip(reseeded, original)
        )


class TestExecutionPlan:
    def test_topology_affinity_never_splits_a_topology(self):
        plan = ExecutionPlan.from_matrix(grid(), workers=3)
        owners = {}
        for shard in plan.shards:
            for topology in dict.fromkeys(c.cell.topology for c in shard.cells):
                assert topology not in owners, (
                    f"{topology} split across shards "
                    f"{owners[topology]} and {shard.index}"
                )
                owners[topology] = shard.index
        assert len(owners) == 4

    def test_cells_stay_in_expansion_order_within_a_shard(self):
        plan = ExecutionPlan.from_matrix(grid(), workers=2)
        for shard in plan.shards:
            positions = [indexed.position for indexed in shard.cells]
            assert positions == sorted(positions)

    def test_every_cell_planned_exactly_once(self):
        matrix = grid()
        cells, skipped = matrix.expand()
        plan = ExecutionPlan.from_matrix(matrix, workers=3)
        planned = sorted(
            indexed.position for shard in plan.shards for indexed in shard.cells
        )
        assert planned == list(range(len(cells)))
        assert plan.cell_count == len(cells)
        assert plan.skipped == skipped

    def test_packing_balances_loads(self):
        plan = ExecutionPlan.from_matrix(grid(), workers=2)
        sizes = sorted(len(shard) for shard in plan.shards)
        # 4 topology groups x 3 strategies over 2 shards: 6 + 6, never 3 + 9.
        assert sizes == [6, 6]

    def test_workers_clamp_to_topology_count(self):
        plan = ExecutionPlan.from_matrix(grid(), workers=32)
        assert len(plan.shards) == 4
        assert all(len(shard) > 0 for shard in plan.shards)

    def test_plan_is_deterministic(self):
        a = ExecutionPlan.from_matrix(grid(), workers=3)
        b = ExecutionPlan.from_matrix(grid(), workers=3)
        assert [s.cells for s in a.shards] == [s.cells for s in b.shards]

    def test_all_skipped_grid_plans_to_no_shards(self):
        matrix = grid(topologies=("complete:9",), strategies=("manhattan",))
        plan = ExecutionPlan.from_matrix(matrix, workers=2)
        assert plan.shards == ()
        assert plan.cell_count == 0
        assert len(plan.skipped) == 1

    def test_worker_resolution(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestSpool:
    def _cell(self, topology="complete:9") -> CellResult:
        return CellResult(
            topology=topology, strategy="checkerboard", regime="none",
            summary={"requests": 5, "successes": 5},
            plan_cache={"plan_hit": 2}, wall_seconds=0.5,
        )

    def test_round_trip(self, tmp_path):
        path = shard_spool_path(tmp_path, 0)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(dump_spool_line(7, self._cell()))
            fp.write(dump_spool_line(2, self._cell("manhattan:3")))
        entries = load_spool(path)
        assert [position for position, _ in entries] == [7, 2]
        assert entries[1][1].topology == "manhattan:3"
        assert encode(entries[0][1]) == encode(self._cell())

    def test_torn_tail_is_ignored_not_fatal(self, tmp_path):
        path = shard_spool_path(tmp_path, 1)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(dump_spool_line(0, self._cell()))
            fp.write('{"position": 1, "cell": {"topo')  # writer died here
        assert [position for position, _ in load_spool(path)] == [0]
        assert SpoolCursor([path]).count() == 1

    def test_count_tolerates_missing_files(self, tmp_path):
        present = shard_spool_path(tmp_path, 0)
        with open(present, "w", encoding="utf-8") as fp:
            fp.write(dump_spool_line(0, self._cell()))
            fp.write(dump_spool_line(1, self._cell()))
        missing = shard_spool_path(tmp_path, 9)
        assert SpoolCursor([present, missing]).count() == 2

    def test_spool_lines_are_json_per_line(self, tmp_path):
        line = dump_spool_line(3, self._cell())
        assert line.endswith("\n")
        record = json.loads(line)
        assert record["position"] == 3
        assert record["cell"]["strategy"] == "checkerboard"

    def test_torn_record_mid_file_is_corruption_not_truncation(self, tmp_path):
        # Only the *final* record may be incomplete (writer died mid-line).
        # A torn record with complete records after it means the file was
        # damaged, and silently dropping the tail would misreport finished
        # cells as missing.
        path = shard_spool_path(tmp_path, 2)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(dump_spool_line(0, self._cell()))
            fp.write('{"position": 1, "cell": {"topo\n')
            fp.write(dump_spool_line(2, self._cell()))
        with pytest.raises(SpoolError, match=r"line 2"):
            load_spool(path)

    def test_complete_but_invalid_record_raises_with_location(self, tmp_path):
        path = shard_spool_path(tmp_path, 3)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(dump_spool_line(0, self._cell()))
            fp.write('{"position": 1}\n')  # newline landed, no "cell" field
            fp.write(dump_spool_line(2, self._cell()))
        with pytest.raises(SpoolError, match=rf"{path}.*line 2"):
            load_spool(path)

    @pytest.mark.parametrize("position", ['"3"', "4.9", "4.0", "true", "null"])
    def test_a_position_that_is_no_json_int_is_corruption(self, tmp_path, position):
        # int() would load "3", 4.9 and true as positions 3, 4 and 1: the
        # merge would place a cell where no worker put it.
        path = shard_spool_path(tmp_path, 4)
        record = json.loads(dump_spool_line(1, self._cell()))
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(dump_spool_line(0, self._cell()))
            line = json.dumps(record).replace('"position": 1', f'"position": {position}')
            fp.write(line + "\n")
        with pytest.raises(SpoolError, match=rf"{path}.*line 2.*position"):
            load_spool(path)


class TestSpoolCursor:
    def _line(self, position) -> str:
        return dump_spool_line(position, CellResult(
            topology="complete:9", strategy="checkerboard", regime="none",
            summary={}, plan_cache={}, wall_seconds=0.0,
        ))

    def test_counts_only_appended_bytes_across_polls(self, tmp_path):
        path = shard_spool_path(tmp_path, 0)
        cursor = SpoolCursor([path])
        assert cursor.count() == 0  # file not created yet
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self._line(0))
            fp.flush()
            assert cursor.count() == 1
            assert cursor.count() == 1  # nothing appended: no recount
            fp.write(self._line(1))
            fp.write(self._line(2))
            fp.flush()
            assert cursor.count() == 3

    def test_partial_line_counts_once_its_newline_lands(self, tmp_path):
        path = shard_spool_path(tmp_path, 0)
        cursor = SpoolCursor([path])
        whole = self._line(0)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(whole[:10])  # a record caught mid-write
            fp.flush()
            assert cursor.count() == 0
            fp.write(whole[10:])
            fp.flush()
            assert cursor.count() == 1

    def test_cursor_totals_across_files(self, tmp_path):
        paths = [shard_spool_path(tmp_path, index) for index in range(2)]
        cursor = SpoolCursor(paths)
        paths[0].write_text(self._line(0), encoding="utf-8")
        assert cursor.count() == 1
        paths[1].write_text(self._line(1) + self._line(2), encoding="utf-8")
        assert cursor.count() == 3


class _TtyStringIO(io.StringIO):
    """A capture stream that claims to be a terminal."""

    def isatty(self):
        return True


class TestProgressReporter:
    def test_renders_percent_elapsed_and_finishes_with_newline(self):
        stream = _TtyStringIO()
        report = ProgressReporter(stream=stream, min_interval=0.0)
        report(1, 4)
        report(4, 4)
        output = stream.getvalue()
        assert "1/4 (25%)" in output
        assert "eta" in output
        # The final render is padded to the widest line so far, so the
        # shrinking 100% line (no ETA column) overwrites every stale char.
        final = output.rsplit("\r", 1)[-1]
        assert final.rstrip(" \n") == "cells 4/4 (100%) elapsed 0s"
        assert len(final.rstrip("\n")) >= len("cells 1/4 (25%) elapsed 0s")
        assert output.endswith("\n")

    def test_repeated_counts_are_deduplicated(self):
        stream = _TtyStringIO()
        report = ProgressReporter(stream=stream, min_interval=0.0)
        report(2, 2)
        report(2, 2)
        report(2, 2)
        assert stream.getvalue().count("2/2") == 1

    def test_non_tty_stream_gets_plain_newline_lines(self):
        # A redirected/CI stream must never see in-place \r rewrites —
        # they smear every update onto one unreadable line in a log file.
        stream = io.StringIO()
        assert not stream.isatty()
        report = ProgressReporter(stream=stream, min_interval=0.0)
        report(1, 4)
        report(4, 4)
        output = stream.getvalue()
        assert "\r" not in output
        lines = output.splitlines()
        assert lines[0].startswith("cells 1/4 (25%)")
        assert lines[-1] == "cells 4/4 (100%) elapsed 0s"
        # No padding games off-terminal: every line is exactly its body.
        assert all(line == line.rstrip() for line in lines)

    def test_non_tty_throttle_floors_to_plain_interval(self):
        # One log line per second is plenty; the final update still lands.
        stream = io.StringIO()
        report = ProgressReporter(stream=stream, min_interval=0.0)
        report(1, 100)
        report(2, 100)   # throttled: inside PLAIN_INTERVAL
        report(100, 100)  # finished: always emitted
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("cells 1/100")
        assert lines[1].startswith("cells 100/100")

    def test_format_seconds(self):
        assert format_seconds(12.4) == "12s"
        assert format_seconds(184) == "3m04s"
        assert format_seconds(3725) == "1h02m"
