"""Compare two ledger runs under the bounds ``BENCHMARK.json`` fixes.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py --aa N [run.py arguments ...]

``A.json``/``B.json`` are ``run.py --out`` files; A is the base.  One row is
printed per workload x end-to-end metric, every ratio with its base:

* ``WORSE``   B is worse than A by more than the metric's bound;
* ``better``  B is better than A by more than the bound;
* ``unresolved``  the difference is inside the bound but the sample spread
  (quartile distance over median, of either side) exceeds it, so "unchanged"
  cannot be claimed;
* ``same``    inside the bound, spread inside the bound.

The exit code is 1 when any row is ``WORSE``.  ``--aa N`` runs the benchmark
N times itself (same commit, same seed) and compares all pairs: every pair
must agree within the bounds, and the exact metrics must be bit-identical on
the in-process workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import CHECKOUT, LEDGER_DIR, iqr_ratio, scratch_directory

#: Metrics that are functions of the inputs alone: same seed, same value.
EXACT = ("py_calls_per_req", "hops_per_req", "ok_share")
#: ``py_calls_per_req`` counts the parent's poll loop there, which wobbles.
OUT_OF_PROCESS = "matrix_par2"


def load_bounds() -> Dict[str, dict]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def spread_of(section: dict, metric: str) -> float:
    """Within-run sample spread of a timing metric (0 for exact ones)."""
    if metric == "sim_req_per_s":
        return iqr_ratio(section["wall_s"]["samples"])
    if metric == "setup_s":
        return iqr_ratio(section["setup_s_samples"])
    return 0.0


def compare(base: dict, other: dict, bounds: Dict[str, dict]) -> List[dict]:
    rows = []
    for name, a_section in base["workloads"].items():
        b_section = other["workloads"].get(name)
        if b_section is None:
            continue
        for metric, rule in bounds.items():
            a = a_section["end_to_end"][metric]
            b = b_section["end_to_end"][metric]
            change = (b - a) / a if a else 0.0
            worse_by = -change if rule["better"] == "higher" else change
            spread = max(spread_of(a_section, metric), spread_of(b_section, metric))
            if worse_by > rule["bound"]:
                status = "WORSE"
            elif worse_by < -rule["bound"]:
                status = "better"
            elif spread > rule["bound"]:
                status = "unresolved"
            else:
                status = "same"
            rows.append({
                "workload": name, "metric": metric, "a": a, "b": b,
                "ratio": b / a if a else 0.0, "bound": rule["bound"],
                "spread": spread, "status": status,
            })
    return rows


def print_rows(rows: List[dict], label: str) -> None:
    print(f"# {label}")
    print(f"{'workload':14} {'metric':17} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6} {'spread':>7}  status")
    for row in rows:
        print(
            f"{row['workload']:14} {row['metric']:17} {row['a']:14.6g} "
            f"{row['b']:14.6g} {row['ratio']:8.4f} {row['bound']:6.3f} "
            f"{row['spread']:7.3f}  {row['status']}"
        )


def run_aa(count: int, run_args: List[str]) -> int:
    """Run the benchmark ``count`` times and compare every pair."""
    bounds = load_bounds()
    reports = []
    with scratch_directory() as scratch:
        for index in range(count):
            out = scratch / f"aa-{index}.json"
            command = [
                sys.executable, str(LEDGER_DIR / "run.py"), "--out", str(out),
                *run_args,
            ]
            print(f"# run {index + 1}/{count}: {' '.join(command)}", flush=True)
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            report = json.loads(out.read_text())
            for section in report["workloads"].values():
                section.pop("spans", None)  # tens of MB the comparison ignores
            reports.append(report)
    disagreements = 0
    for (i, base), (j, other) in itertools.combinations(enumerate(reports), 2):
        rows = compare(base, other, bounds)
        print_rows(rows, f"A/A pair {i + 1} (base) vs {j + 1}")
        for row in rows:
            exact = row["metric"] in EXACT and not (
                row["workload"] == OUT_OF_PROCESS
                and row["metric"] == "py_calls_per_req"
            )
            if row["status"] in ("WORSE", "better") or (
                exact and row["a"] != row["b"]
            ):
                disagreements += 1
                print(f"# DISAGREE: {row['workload']} {row['metric']} "
                      f"{row['a']!r} vs {row['b']!r}")
    print(f"# A/A over {count} runs: "
          f"{'agree' if not disagreements else f'{disagreements} disagreement(s)'}")
    return 1 if disagreements else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, metavar="RUN.json")
    parser.add_argument("--aa", type=int, default=None, metavar="N",
                        help="run the benchmark N times and compare all pairs; "
                             "unknown arguments are passed on to run.py")
    args, run_args = parser.parse_known_args(argv)
    if args.aa is not None:
        if args.aa < 2 or args.files:
            parser.error("--aa needs N >= 2 and no files")
        return run_aa(args.aa, run_args)
    if len(args.files) != 2 or run_args:
        parser.error("give exactly two run.py --out files (A = base, B)")
    base, other = (json.loads(path.read_text()) for path in args.files)
    if base["seed"] != other["seed"] or base["smoke"] != other["smoke"]:
        print("# note: the two runs used different inputs (seed/smoke); "
              "exact metrics are not comparable")
    rows = compare(base, other, load_bounds())
    print_rows(rows, f"{args.files[0]} (A, base) vs {args.files[1]} (B)")
    return 1 if any(row["status"] == "WORSE" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
