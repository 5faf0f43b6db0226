"""Plain-text report formatting (tables, scaling series, breakdowns).

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that formatting consistent and readable
in terminal output and in EXPERIMENTS.md.

This module also owns the benchmark-artifact schema: every ``BENCH_*.json``
payload is stamped with :data:`BENCH_SCHEMA_VERSION` and the
:func:`run_metadata` block (git SHA, host CPU count, platform, code size),
so perf-trajectory tooling can tell apart format changes from machine
changes and sees the codebase grow or shrink next to the numbers.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

#: Version of the ``BENCH_*.json`` artifact layout.  Bump when keys move or
#: change meaning; comparison tooling refuses to diff across versions.
BENCH_SCHEMA_VERSION = 2

#: Repository root (three levels above ``src/repro/perf``); the canonical
#: bench-artifact directory hangs off it.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Canonical location of every ``BENCH_*.json`` artifact.
RESULTS_DIR = _REPO_ROOT / "benchmarks" / "results"


def _code_size() -> Dict[str, int]:
    """Lines and modules (``.py`` files) of ``repro`` source, and public
    symbols (package ``__all__`` sum)."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    modules = list(package_dir.rglob("*.py"))
    packages = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    return {
        "src_lines": sum(p.read_bytes().count(b"\n") for p in modules),
        "src_modules": len(modules),
        "public_symbols": sum(
            len(getattr(importlib.import_module(name), "__all__", ())) for name in packages
        ),
    }


def run_metadata() -> Dict[str, object]:
    """Provenance block stamped into every benchmark artifact.

    Best-effort by design: a missing git binary (or a non-repo checkout)
    yields ``git_sha: None`` rather than a failed benchmark run.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        **_code_size(),
    }


def write_bench_artifact(name: str, payload: Mapping[str, object]) -> Path:
    """Write one ``BENCH_*.json`` artifact to its canonical locations.

    The single write-path for every benchmark: the payload lands in
    :data:`RESULTS_DIR` (``benchmarks/results/``, created on demand) and a
    byte-identical copy at the repository root, where CI's existence
    assertions and quick ``cat BENCH_*.json`` inspection expect it.
    Returns the canonical (results-dir) path.
    """
    if not name.endswith(".json"):
        raise ValueError(f"bench artifact name must end in .json, got {name!r}")
    text = json.dumps(payload, indent=2)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    canonical = RESULTS_DIR / name
    canonical.write_text(text)
    (_REPO_ROOT / name).write_text(text)
    return canonical


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells but there are {len(headers)} headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_scaling(
    resources: Sequence[int],
    series: Mapping[str, Sequence[float]],
    resource_label: str = "ranks",
    title: str | None = None,
) -> str:
    """Render one or more series against a shared resource axis."""
    headers = [resource_label] + list(series.keys())
    rows = []
    for i, res in enumerate(resources):
        row: List[object] = [res]
        for values in series.values():
            row.append(values[i])
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_breakdown(breakdown: Mapping[str, float], title: str | None = None, as_percent: bool = True) -> str:
    """Render a phase breakdown (fractions shown as percentages)."""
    rows = []
    for label, value in breakdown.items():
        rows.append([label, f"{value * 100:.1f}%" if as_percent else value])
    return format_table(["phase", "share" if as_percent else "seconds"], rows, title=title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)
