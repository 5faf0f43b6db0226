"""The repository's benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1 | --traced] [--smoke] [--record FILE]

With ``--workload`` it runs that workload in this process and prints, as the
last line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of ``BENCHMARK.json``
untraced, every per-layer metric with ``--trace 1``.  Without it, it runs all
five, each in a process of its own so that ``peak_rss_mb`` is that workload's.
The exit code is 1 when an answer was wrong or an operation failed.

It measures the program from outside: ``src/`` is found next to this
package, every ``REPRO_*`` variable is scrubbed before ``repro`` is imported,
and all files it writes go under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def bootstrap() -> None:
    """Make ``repro`` and this package importable, with every ``REPRO_*``
    variable scrubbed from the environment."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: the program's source is not at {ROOT / 'src'}; nothing to measure")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def keep_freed_memory() -> None:
    """Tell glibc's allocator to serve every size from the heap and never to
    hand freed memory back to the kernel.

    NumPy temporaries above 128 KiB are otherwise mapped and unmapped on
    every call, and on a shared virtual machine a page fault on fresh memory
    costs anything between a quarter of a microsecond and a millisecond: the
    same 150 MB temporary took 74-903 ms without this and 55-109 ms with it.
    That is the host's memory manager, not the program.  Only the command
    line does this, for its own process; ``run_workload`` called from a test
    leaves the caller's allocator alone.
    """
    import ctypes

    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(m_mmap_threshold, 1 << 30)
        libc.mallopt(m_trim_threshold, 1 << 30)
    except (OSError, AttributeError):
        pass  # not glibc: measure with the allocator as it is


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float | None = None,
    traced: bool = False,
    smoke: bool = False,
    out_dir: Path | None = None,
) -> dict:
    """Run one workload in this process; returns the result object.

    The result has the four keys of the driver's contract plus ``workload``,
    ``seed``, ``traced`` and ``detail`` (dropped from the printed last line).
    """
    bootstrap()
    from e2e_spec import CARRIER, workload_spec
    from e2e_workloads import RUNNERS, peak_rss_mb

    bench = load_benchmark()
    spec = workload_spec(name, smoke)
    seconds = bench["run_seconds"] / (20 if smoke else 1) if seconds is None else seconds
    reps = max(1, round(seconds / spec["unit_s"]))
    out_dir = OUT if out_dir is None else out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        if traced:
            from e2e_probes import run_traced

            values, outcome = run_traced(name, spec, seed, scratch, out_dir)
            declared = bench["per_layer"]
        else:
            outcome = RUNNERS[spec["kind"]](spec, seed, reps, scratch)
            values = dict(outcome.metrics)
            values["peak_rss_mb"] = peak_rss_mb()
            for metric, carrier in CARRIER[spec["kind"]].items():
                values[metric] = values[carrier]
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for entry in declared:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            # An entry point a later change removed: say so, keep running.
            print(f"warning: {entry['name']} could not be measured; reported as 0", file=sys.stderr)
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    outcome.detail.pop("phases", None)
    return {
        "workload": name, "seed": seed, "traced": traced,
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted), "failed": int(outcome.failed),
        "metrics": metrics, "detail": outcome.detail,
    }


def report(result: dict) -> str:
    """Every metric of one result by name, with its unit."""
    from e2e_spec import CARRIER, WORKLOADS

    carriers = {} if result["traced"] else CARRIER[WORKLOADS[result["workload"]]["kind"]]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"{'traced (per-layer)' if result['traced'] else 'untraced (end-to-end)'}"
    ]
    for name, metric in result["metrics"].items():
        note = f"   = {carriers[name]} (carried, not measured here)" if name in carriers else ""
        lines.append(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}{note}")
    detail = {k: v for k, v in result["detail"].items() if not isinstance(v, (list, dict))}
    lines.append(f"  detail: {json.dumps(detail)}")
    lines.append(
        f"  ops: {result['attempted']} attempted, {result['failed']} failed"
        f" -> {'correct' if result['correct'] else 'WRONG'}"
    )
    return "\n".join(lines)


def last_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="divide every count by 20")
    parser.add_argument("--record", type=Path, help="append each result as one JSON line (for compare.py)")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)

    if args.workload:
        names = [w["name"] for w in load_benchmark()["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        result = run_workload(args.workload, args.seed, args.seconds, traced, args.smoke)
        print(report(result))
        if args.record:
            with args.record.open("a") as sink:
                sink.write(json.dumps({k: v for k, v in result.items() if k != "detail"}) + "\n")
        print(last_line(result))
        return 0 if result["correct"] else 1

    # The sweep: one child process per workload, so that ru_maxrss is its own.
    status = 0
    forwarded = list(sys.argv[1:] if argv is None else argv)
    for entry in load_benchmark()["workloads"]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"], *forwarded]
        )
        status = status or child.returncode
    return status


if __name__ == "__main__":
    keep_freed_memory()
    sys.exit(main())
