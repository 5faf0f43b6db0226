"""Calibrate the bounds from recorded runs: ``calibrate.py RUNS.jsonl [...]``.

Each argument is one *set* of runs of the unchanged tree, as
``run.py --record`` wrote it (ten seeds per workload is what the driver
makes).  For every workload and end-to-end metric the workload measures, it
prints the median and the spread of each set (interquartile range over the
median, from ``statistics.quantiles(values, n=4)``), and proposes for each
metric the bound

    min(0.25, max(starting bound, 3 x the widest spread over workloads and sets))

so that every spread seen stays below a third of its bound.  With
``--write FILE`` it also saves the raw values, the proposal, the per-layer
values of whatever traced runs the files hold, and the run metadata (git
SHA, cores, Python, NumPy, lines of ``src/``) as the baseline later changes
are read against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from compare import load_runs, spread
from e2e_spec import WORKLOADS, measures

ROOT = Path(__file__).resolve().parents[2]

#: The bounds the benchmark started from, before any run was made.
STARTING_BOUNDS = {
    "setup_s": 0.15, "peak_rss_mb": 0.10, "build_pts_per_s": 0.10, "query_per_s": 0.10,
    "low_p50_ms": 0.10, "low_p99_ms": 0.25, "high_p50_ms": 0.15, "capacity_qps": 0.10,
    "read_p50_ms": 0.10, "read_p99_ms": 0.25, "write_mean_ms": 0.15, "stream_ops_per_s": 0.10,
}
MAX_BOUND = 0.25


def metadata() -> dict:
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha or None, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "src_lines": src_lines,
    }


def traced_ledger(paths: list) -> dict:
    """``{workload: {per-layer metric: [value per traced run]}}``."""
    ledger: dict = {}
    for path in paths:
        for line in path.read_text().splitlines():
            result = json.loads(line) if line.strip() else {}
            if result.get("traced"):
                for name, metric in result["metrics"].items():
                    ledger.setdefault(result["workload"], {}).setdefault(name, []).append(metric["value"])
    return ledger


def calibrate(sets: list, bench: dict) -> dict:
    """Per-metric proposal and per-(workload, metric) raw values."""
    table: dict = {}
    proposal: dict = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        widest = 0.0
        for workload in (w for w in WORKLOADS if measures(w, name)):
            values = [[r["metrics"][name]["value"] for r in runs.get(workload, [])] for runs in sets]
            spreads = [spread(v) for v in values]
            widest = max([widest, *spreads])
            table[f"{workload}/{name}"] = {
                "unit": metric["unit"],
                "medians": [statistics.median(v) if v else None for v in values],
                "spreads": spreads, "values": values,
            }
        proposal[name] = {
            "starting": STARTING_BOUNDS[name], "widest_spread": widest,
            "bound": round(min(MAX_BOUND, max(STARTING_BOUNDS[name], 3.0 * widest)), 2),
            "declared": metric["bound"],
        }
    return {"bounds": proposal, "readings": table}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = calibrate([load_runs(path) for path in args.records], bench)

    print(f"{'workload/metric':<36}" + "".join(f"{'median':>13}{'spread':>8}" for _ in args.records))
    for key, row in result["readings"].items():
        cells = "".join(
            f"{m:>13.5g}{s:>8.1%}" if m is not None else f"{'-':>13}{'-':>8}"
            for m, s in zip(row["medians"], row["spreads"])
        )
        print(f"{key:<36}{cells}")
    print()
    status = 0
    for name, row in result["bounds"].items():
        note = ""
        if row["widest_spread"] > row["declared"]:
            note, status = "  <- SPREAD ABOVE THE DECLARED BOUND", 1
        elif row["widest_spread"] > row["declared"] / 3.0:
            note = "  <- spread above a third of the declared bound"
        print(
            f"{name:<18} widest spread {row['widest_spread']:6.1%}  proposed bound {row['bound']:.2f}"
            f"  declared {row['declared']:.2f}{note}"
        )
    if args.write:
        result["per_layer"] = traced_ledger(args.records)
        args.write.write_text(json.dumps({"metadata": metadata(), **result}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
