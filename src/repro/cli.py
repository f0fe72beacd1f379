"""The ``python -m repro`` command line: run, sweep, replay — reproducibly.

Five subcommands wrap the paper table and the workload and execution
engines for shell use:

``paper``
    measure every claim of the paper in :mod:`repro.analysis.paper` and
    print the paper-vs-measured table; exit 1 names each failing row;

``run spec.json``
    execute one :class:`~repro.workload.spec.ScenarioSpec`, print its
    deterministic result dict as JSON, optionally record the trace;
``matrix grid.json --workers N``
    expand a :class:`~repro.workload.matrix.MatrixSpec` and run it through
    the parallel execution engine (``--workers 0`` = one per CPU), with
    progress/ETA on stderr and the per-cell/per-axis tables on stdout;
``replay trace.jsonl``
    re-execute a recorded trace and, with ``--expect``, verify the replay
    reproduces a previously saved result byte-for-byte;
``obs summarize/diff/attribute``
    inspect the observability export a ``--obs DIR`` run wrote: merged
    metric totals, span-derived hop breakdowns, per-worker phase profiles,
    numeric deltas between two exports, critical-path attribution;

Everything machine-readable goes to stdout, progress and notes to stderr,
so ``python -m repro ... > out.json`` composes in pipelines.  Exit status
is 0 on success, 1 on a failed ``--expect`` verification or paper claim,
2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from .analysis import render_matrix_report
from .core.exceptions import MatchMakingError
from .exec.plan import resolve_workers
from .exec.progress import ProgressReporter
from .obs import SpanRecorder, export_dir
from .obs.export import write_cell
from .obs.tools import (
    diff_exports,
    render_diff,
    render_summary,
    summarize_export,
)
from .workload import (
    MatrixSpec,
    ScenarioSpec,
    Trace,
    replay_trace,
    run_matrix,
    run_scenario,
)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


# -- subcommands -------------------------------------------------------------------

def _cmd_paper(args: argparse.Namespace) -> int:
    from .analysis import paper

    text, failures = paper.render()
    print(text)
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ScenarioSpec.from_dict(_load_json(args.spec))
    if getattr(args, "time_model", None):
        from dataclasses import replace as _replace

        from .simtime import TimeModelSpec

        spec = _replace(
            spec, time_model=TimeModelSpec.from_dict(_load_json(args.time_model))
        )
    tracer = SpanRecorder() if args.obs else None
    result = run_scenario(spec, tracer=tracer)
    if args.obs:
        write_cell(
            export_dir(args.obs),
            0,
            {
                "name": spec.name,
                "topology": spec.topology,
                "strategy": spec.strategy,
            },
            tracer,
            result,
        )
        _note(f"observability export ({len(tracer)} spans) -> {args.obs}")
    if args.trace:
        result.trace.to_path(args.trace)
        _note(f"trace ({len(result.trace)} ops) -> {args.trace}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(result.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        _note(f"result -> {args.out}")
    _emit(result.to_dict())
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    matrix = MatrixSpec.from_dict(_load_json(args.spec))
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    # Processes start on the first submit, so a one-shard plan starts none.
    with ProcessPoolExecutor(
        max_workers=resolve_workers(args.workers)
    ) as executor:
        for iteration in range(args.repeat):
            progress = None if args.no_progress else ProgressReporter()
            report, _ = run_matrix(
                matrix,
                workers=args.workers,
                progress=progress,
                trace_dir=args.traces,
                keep_results=False,
                obs_dir=args.obs,
                profile=args.profile,
                cache_dir=args.cache_dir,
                executor=executor,
            )
            stats = report.cache_stats
            if stats is not None:
                _note("cache: " + "  ".join(
                    f"{key}={stats[key]}" for key in sorted(stats)
                ))
            if args.repeat > 1:
                _note(
                    f"run {iteration + 1}/{args.repeat}: "
                    f"digest {report.digest()}"
                )
    if args.traces:
        _note(f"cell traces -> {args.traces}")
    if args.obs:
        _note(f"observability export -> {args.obs}")
    if args.report:
        report.to_path(args.report)
        _note(f"report -> {args.report}")
    if args.digest:
        print(report.digest())
        return 0
    print(render_matrix_report(report))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.attr import (
        attribute_export,
        diff_attribution,
        render_attribution,
        render_attribution_diff,
    )

    if args.obs_command == "summarize":
        summary = summarize_export(args.dir)
        if args.json:
            _emit(summary)
        else:
            print(render_summary(summary))
        return 0
    if args.obs_command == "attribute":
        attribution = attribute_export(args.dir, top=args.top)
        if args.json:
            _emit(attribution)
        else:
            print(render_attribution(attribution))
        return 0
    if getattr(args, "attribute", False):
        diff = diff_attribution(args.dir_a, args.dir_b, top=args.top)
        if args.json:
            _emit(diff)
        else:
            print(render_attribution_diff(diff))
        return 0
    diff = diff_exports(args.dir_a, args.dir_b)
    if args.json:
        _emit(diff)
    else:
        print(render_diff(
            diff,
            before=summarize_export(args.dir_a),
            after=summarize_export(args.dir_b),
        ))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = Trace.from_path(args.trace)
    result = replay_trace(trace)
    _emit(result.to_dict())
    if args.expect:
        expected = _load_json(args.expect)
        if json.dumps(result.to_dict(), sort_keys=True) == \
                json.dumps(expected, sort_keys=True):
            _note("replay matches the expected result byte-for-byte")
            return 0
        _note("replay DIVERGED from the expected result")
        return 1
    return 0


# -- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed for tests and ``--help`` rendering)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Check the paper's claims; run, sweep and replay "
        "match-making workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    paper_p = sub.add_parser(
        "paper", help="measure every claim of the paper and print the table"
    )
    paper_p.set_defaults(handler=_cmd_paper)

    run_p = sub.add_parser(
        "run", help="run one scenario spec (JSON) and print its result"
    )
    run_p.add_argument("spec", help="path to a ScenarioSpec JSON file")
    run_p.add_argument(
        "--trace", metavar="PATH",
        help="record the run's trace as replayable JSONL",
    )
    run_p.add_argument(
        "--out", metavar="PATH", help="also write the result dict to PATH"
    )
    run_p.add_argument(
        "--obs", metavar="DIR",
        help="write the run's span tree and metrics registry under DIR",
    )
    run_p.add_argument(
        "--time-model", metavar="PATH",
        help="attach a TimeModelSpec (JSON) so the run prices messages on "
        "the virtual clock and reports latency percentiles",
    )
    run_p.set_defaults(handler=_cmd_run)

    matrix_p = sub.add_parser(
        "matrix", help="run a scenario-matrix grid (JSON), optionally sharded"
    )
    matrix_p.add_argument("spec", help="path to a MatrixSpec JSON file")
    matrix_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (1 = sequential, 0 = one per CPU; default 1)",
    )
    matrix_p.add_argument(
        "--report", metavar="PATH", help="write the MatrixReport JSON to PATH"
    )
    matrix_p.add_argument(
        "--traces", metavar="DIR",
        help="spool every cell's trace as DIR/cell-NNNN.jsonl",
    )
    matrix_p.add_argument(
        "--digest", action="store_true",
        help="print only the report's canonical SHA-256 digest",
    )
    matrix_p.add_argument(
        "--no-progress", action="store_true",
        help="suppress the progress/ETA line on stderr",
    )
    matrix_p.add_argument(
        "--obs", metavar="DIR",
        help="write per-cell span trees and metrics (JSONL) under DIR",
    )
    matrix_p.add_argument(
        "--profile", action="store_true",
        help="time run phases (wall clock) and add a profile section to "
             "the report — never part of the digest",
    )
    matrix_p.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed cell cache: serve unchanged cells from DIR "
             "instead of executing them, and store every executed cell — "
             "the report digest is identical either way",
    )
    matrix_p.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the grid N times in one process (the runs share one set "
             "of worker processes, which keep nothing between runs); "
             "prints each run's digest on stderr",
    )
    matrix_p.set_defaults(handler=_cmd_matrix)

    obs_p = sub.add_parser(
        "obs", help="inspect an observability export written with --obs"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    summarize_p = obs_sub.add_parser(
        "summarize",
        help="merged metric totals, span hop breakdowns, phase profiles",
    )
    summarize_p.add_argument("dir", help="export directory (from --obs)")
    summarize_p.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    summarize_p.set_defaults(handler=_cmd_obs)
    attribute_p = obs_sub.add_parser(
        "attribute",
        help="rank critical-path contributors of a timed export — which "
             "queue/link/service segment carries the tail latency",
    )
    attribute_p.add_argument("dir", help="export directory (from --obs)")
    attribute_p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="contributor rows to keep per section (default 10)",
    )
    attribute_p.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    attribute_p.set_defaults(handler=_cmd_obs)
    diff_p = obs_sub.add_parser(
        "diff", help="numeric metric/span deltas between two exports (b - a)"
    )
    diff_p.add_argument("dir_a", help="baseline export directory")
    diff_p.add_argument("dir_b", help="comparison export directory")
    diff_p.add_argument(
        "--attribute", action="store_true",
        help="explain the delta as ranked critical-path contributor "
             "changes instead of raw metric/span deltas (timed exports)",
    )
    diff_p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="contributor rows with --attribute (default 10)",
    )
    diff_p.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    diff_p.set_defaults(handler=_cmd_obs)

    replay_p = sub.add_parser(
        "replay", help="re-execute a recorded trace (JSONL)"
    )
    replay_p.add_argument("trace", help="path to a trace .jsonl file")
    replay_p.add_argument(
        "--expect", metavar="PATH",
        help="result dict JSON the replay must reproduce byte-for-byte",
    )
    replay_p.set_defaults(handler=_cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError, TypeError, MatchMakingError) as error:
        # Bad input of any shape — unreadable file, malformed JSON, spec
        # validation, unknown strategy/topology — is exit 2, never a
        # traceback; exit 1 stays reserved for --expect divergence.
        _note(f"error: {error}")
        return 2
