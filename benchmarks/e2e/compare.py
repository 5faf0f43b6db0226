"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

Each file holds the lines ``run.py --record FILE`` appended, any number of
untraced runs per workload.  One row is printed per workload and end-to-end
metric that the workload measures itself (a carried slot repeats another row
and is left out): both medians, the ratio with its base, and a verdict.

    better        B's median beats A's by more than the metric's bound
    within-bound  neither side is ahead by more than the bound
    worse         B's median trails A's by more than the bound
    unresolved    the runs of one side spread wider than the bound, and the
                  two sides overlap, so the medians decide nothing

The exit code is 1 on any ``worse`` and when B failed a larger share of its
operations than A.  It reads only this benchmark's own output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from e2e_spec import measures

HERE = Path(__file__).resolve().parent


def load_runs(path: Path) -> dict:
    """``{workload: [untraced result, ...]}`` from one record file."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            if not result.get("traced"):
                runs.setdefault(result["workload"], []).append(result)
    return runs


def spread(values: list) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within-bound"


def compare(a_runs: dict, b_runs: dict, bench: dict) -> tuple:
    """``(report lines, exit code)``."""
    lines = [f"{'workload':<16}{'metric':<18}{'A median':>14}{'B median':>14}{'B/A':>8}  verdict"]
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            lines.append(f"{workload:<16}missing from {'A' if not a else 'B'}")
            status = 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if not measures(workload, name):
                continue
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            word = verdict(va, vb, metric["better"], metric["bound"])
            status = status or (word == "worse")
            ma, mb = statistics.median(va), statistics.median(vb)
            lines.append(
                f"{workload:<16}{name:<18}{ma:>14.6g}{mb:>14.6g}{mb / ma:>8.3f}  {word}"
                f"  ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})"
            )
        fa, na = sum(r["failed"] for r in a), sum(r["attempted"] for r in a)
        fb, nb = sum(r["failed"] for r in b), sum(r["attempted"] for r in b)
        grew = fb / nb > fa / na
        status = status or grew
        lines.append(
            f"{workload:<16}ops_failed/ops_attempted  A {fa}/{na}  B {fb}/{nb}"
            f"{'  LARGER FAILED SHARE' if grew else ''}"
        )
    return lines, int(status)


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    lines, status = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), bench)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
