"""Bench regression gate: fresh BENCH_*.json vs the committed baselines.

Compares the artifacts a bench run just wrote under ``benchmarks/results/``
against the copies committed at ``HEAD`` (via ``git show`` — the working-tree
root copies are overwritten by the run itself, so the repository is the only
place the baseline survives).  Every shared numeric leaf is compared with a
direction-aware relative delta:

* *lower is better* (latencies, wall-clock seconds): ``fresh/base - 1``
* *higher is better* (qps, speedups): ``base/fresh - 1``

so a positive delta is always a regression.  Deltas beyond ``--warn`` print a
warning; beyond ``--fail`` the script exits non-zero.  The default band is
deliberately wide (bench smokes run on shared CI machines, wall-clock noise
of 2x is routine) — the gate exists to catch the 5–10x cliffs a wrong
algorithm or an accidental O(n^2) reintroduces, warn-only for everything
else.

Counters, identity flags and metadata are ignored; schema-version mismatch
skips the file (a schema bump legitimately changes shape).  Missing
baselines (first run of a new artifact) skip with a note.

Run after a bench smoke::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --warn 0.5 --fail 4.0
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

ARTIFACTS = ("BENCH_fleet.json", "BENCH_kernels.json")

#: Leaf-key unit suffixes whose values are wall-clock style (lower is better).
LOWER_SUFFIXES = ("_s", "_ms", "_us", "_ns")
#: Leaf-key substrings whose values are wall-clock style (lower is better).
LOWER_MARKERS = ("seconds", "latency")
#: Leaf-key markers whose values are rate/ratio style (higher is better).
HIGHER_IS_BETTER = ("qps", "speedup", "throughput")
#: Leaf keys that are environment facts, not performance (never compared).
IGNORED = (
    "schema_version",
    "elapsed_s",  # whole-run wall time: dominated by machine load
    "overhead_pct",  # already bounded by in-bench assertions
    "cpu_count",
    "python",
    "git_sha",
)
#: Baselines smaller than this are noise floors, not signals.
MIN_BASE = 1e-6


def numeric_leaves(node: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf of a JSON tree."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield prefix, float(node)
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from numeric_leaves(value, f"{prefix}[{idx}]")


def direction(path: str) -> str | None:
    """``"lower"`` / ``"higher"`` / ``None`` (don't compare) for a leaf path."""
    leaf = path.rsplit(".", 1)[-1].split("[")[0].lower()
    if any(leaf == key or leaf.endswith(key) for key in IGNORED):
        return None
    if any(marker in leaf for marker in HIGHER_IS_BETTER):
        return "higher"
    if leaf.endswith(LOWER_SUFFIXES) or any(m in leaf for m in LOWER_MARKERS):
        return "lower"
    return None  # counts, sizes, flags: not a perf axis


def committed_baseline(name: str) -> dict | None:
    """The artifact as committed at HEAD (repo-root copy), or None."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def compare(name: str, warn: float, fail: float) -> Tuple[List[str], List[str]]:
    """Returns (warnings, failures) for one artifact."""
    fresh_path = RESULTS_DIR / name
    if not fresh_path.exists():
        return [f"{name}: no fresh artifact under benchmarks/results/ — skipped"], []
    fresh = json.loads(fresh_path.read_text())
    base = committed_baseline(name)
    if base is None:
        return [f"{name}: no committed baseline at HEAD — skipped (first run?)"], []
    if base.get("schema_version") != fresh.get("schema_version"):
        return [
            f"{name}: schema {base.get('schema_version')} -> "
            f"{fresh.get('schema_version')} — skipped"
        ], []
    if base.get("smoke") != fresh.get("smoke"):
        return [f"{name}: smoke/full size mismatch vs baseline — skipped"], []

    base_leaves: Dict[str, float] = dict(numeric_leaves(base))
    warnings: List[str] = []
    failures: List[str] = []
    compared = 0
    for path, fresh_value in numeric_leaves(fresh):
        sense = direction(path)
        if sense is None or path not in base_leaves:
            continue
        base_value = base_leaves[path]
        if base_value < MIN_BASE or fresh_value < MIN_BASE:
            continue
        if sense == "lower":
            delta = fresh_value / base_value - 1.0
        else:
            delta = base_value / fresh_value - 1.0
        compared += 1
        if delta > fail:
            failures.append(
                f"{name}: {path} regressed {delta * 100.0:+.0f}% "
                f"({base_value:.6g} -> {fresh_value:.6g}, {sense} is better)"
            )
        elif delta > warn:
            warnings.append(
                f"{name}: {path} slower {delta * 100.0:+.0f}% "
                f"({base_value:.6g} -> {fresh_value:.6g}, {sense} is better)"
            )
    warnings.insert(0, f"{name}: compared {compared} perf leaves against HEAD baseline")
    return warnings, failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--warn", type=float, default=1.0,
        help="relative regression that prints a warning (1.0 = 2x slower)",
    )
    parser.add_argument(
        "--fail", type=float, default=4.0,
        help="relative regression that fails the gate (4.0 = 5x slower)",
    )
    parser.add_argument(
        "--artifacts", nargs="*", default=list(ARTIFACTS),
        help="artifact file names to check",
    )
    args = parser.parse_args(argv)
    if args.fail < args.warn:
        parser.error("--fail must be >= --warn")

    any_failure = False
    for name in args.artifacts:
        warnings, failures = compare(name, args.warn, args.fail)
        for line in warnings:
            print(f"  {line}")
        for line in failures:
            print(f"  FAIL {line}")
            any_failure = True
    if any_failure:
        print("regression gate: FAILED")
        return 1
    print("regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
