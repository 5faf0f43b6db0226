"""Microbenchmark: the SoA leaf-scan kernel and the batched query over it.

1. **Leaf scan layout sweep** — squared-distance scans over the same
   leaf-ordered float64 points in two shapes: the AoS row layout
   (``(n, dims)``, einsum reduction) and the SoA column layout the query
   engines stream (:attr:`repro.kdtree.tree.KDTree.columns`).  Reported as
   streamed GB/s (a memory-bandwidth proxy) and scanned Mpoints/s.
2. **Query wall time** — full :func:`batch_knn`, in us/query.
3. **Small-batch sweep** — both query engines, pinned, on batches of
   1, 2, 4, ..., 256 queries at k = 8 and k = 136 over uniform 3-D and
   10-D data, fastest of 7.  This is the measurement behind
   ``repro.kdtree.query._row_by_row_max``: :func:`batch_knn` answers row
   by row up to the batch size where the lockstep engine takes over.

Writes ``BENCH_kernels.json`` via the canonical artifact helper.  Run
directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full size
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # CI size
"""

from __future__ import annotations

import time

import numpy as np

from repro.kdtree.build import build_kdtree
from repro.kdtree.leafblocks import scan_columns_sq
from repro.kdtree.query import _batch_knn_lockstep, _row_by_row_max, batch_knn, batch_knn_scalar
from repro.perf import BENCH_SCHEMA_VERSION, run_metadata, write_bench_artifact

#: Acceptance-scale problem (paper-style single-node query workload).
FULL_SIZE = dict(n_points=200_000, n_queries=10_000, k=8, scan_repeats=20)
#: Small configuration for CI smoke runs.
SMOKE_SIZE = dict(n_points=20_000, n_queries=1_000, k=8, scan_repeats=8)

#: Small-batch sweep: uniform points per dimensionality (the trees the
#: ROADMAP spot timings used), the two widths a fleet asks for (k = 8 plain,
#: k + 128 tombstones = 136 streamed) and fastest-of-N repeats.  The smoke
#: run keeps the trees and trims batch sizes and repeats, so its leaves stay
#: comparable with the committed full-size ones.
SWEEP_POINTS = {3: 50_000, 10: 25_000}
SWEEP_KS = (8, 136)
SWEEP_FULL = dict(max_batch=256, repeats=7)
SWEEP_SMOKE = dict(max_batch=32, repeats=2)

#: Leaf granularity for the scan sweep: distances are computed one
#: leaf-sized slice at a time, like the traversal's leaf kernel.
SCAN_LEAF = 256


def _time_best(fn, repeats: int) -> float:
    """Best-of-N wall time — the least-interfered-with run."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_leaf_scan(points: np.ndarray, query: np.ndarray, repeats: int) -> dict:
    """Scan every leaf-sized slice of ``points`` under each layout."""
    n = points.shape[0]
    aos = np.ascontiguousarray(points, dtype=np.float64)  # (n, dims) rows
    soa = np.ascontiguousarray(aos.T)  # (dims, n) columns
    q64 = np.asarray(query, dtype=np.float64)
    starts = range(0, n, SCAN_LEAF)

    def scan_aos():
        for s in starts:
            block = aos[s : s + SCAN_LEAF]
            diff = block - q64[None, :]
            np.einsum("pd,pd->p", diff, diff)

    def scan_soa():
        for s in starts:
            scan_columns_sq(soa, s, min(SCAN_LEAF, n - s), q64)

    out: dict = {}
    for name, fn, nbytes in (
        ("float64_aos", scan_aos, aos.nbytes),
        ("float64_soa", scan_soa, soa.nbytes),
    ):
        seconds = _time_best(fn, repeats)
        out[name] = {
            "seconds": seconds,
            "gbps": nbytes / seconds / 1e9,
            "mpts_per_s": n / seconds / 1e6,
        }
    return out


def bench_query(tree, queries: np.ndarray, k: int) -> dict:
    """Wall time of one :func:`batch_knn` over ``queries``."""
    t0 = time.perf_counter()
    batch_knn(tree, queries, k)
    float64_s = time.perf_counter() - t0
    return {
        "float64_s": float64_s,
        "float64_us_per_query": float64_s * 1e6 / queries.shape[0],
    }


def bench_small_batches(max_batch: int, repeats: int, seed: int) -> dict:
    """Both engines on 1..``max_batch`` queries; ms per call, fastest of N."""
    rng = np.random.default_rng(seed)
    cells: dict = {}
    for dims, n_points in SWEEP_POINTS.items():
        tree = build_kdtree(rng.uniform(size=(n_points, dims)))
        queries = rng.uniform(size=(max_batch, dims))
        for k in SWEEP_KS:
            cell: dict = {}
            n = 1
            while n <= max_batch:
                batch = queries[:n]
                rows_s = _time_best(lambda: batch_knn_scalar(tree, batch, k), repeats)
                lockstep_s = _time_best(lambda: _batch_knn_lockstep(tree, batch, k), repeats)
                cell[f"n{n}"] = {"rows_ms": rows_s * 1e3, "lockstep_ms": lockstep_s * 1e3}
                n *= 2
            cells[f"d{dims}_k{k}"] = cell
    return {
        "repeats": repeats,
        "row_by_row_max": {f"k{k}": _row_by_row_max(k) for k in SWEEP_KS},
        "cells": cells,
    }


def run_bench(
    n_points: int, n_queries: int, k: int, scan_repeats: int, sweep: dict, seed: int = 1
) -> dict:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 3))
    queries = rng.normal(size=(n_queries, 3))

    scan = bench_leaf_scan(points, queries[0], scan_repeats)
    tree = build_kdtree(points)
    query = bench_query(tree, queries, k)

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "run": run_metadata(),
        "config": {
            "n_points": n_points,
            "n_queries": n_queries,
            "k": k,
            "dims": 3,
            "scan_leaf": SCAN_LEAF,
            "scan_repeats": scan_repeats,
        },
        "leaf_scan": scan,
        "query": query,
        "small_batch": bench_small_batches(seed=seed, **sweep),
    }


def format_report(result: dict) -> str:
    scan = result["leaf_scan"]
    query = result["query"]
    cfg = result["config"]
    lines = [
        f"leaf scan: {cfg['n_points']} points x {cfg['dims']} dims, leaf={cfg['scan_leaf']}",
    ]
    for name in ("float64_aos", "float64_soa"):
        row = scan[name]
        lines.append(
            f"  {name:12s}: {row['seconds'] * 1e3:8.3f} ms"
            f"   {row['gbps']:6.2f} GB/s   {row['mpts_per_s']:7.1f} Mpts/s"
        )
    lines.append(f"query: {cfg['n_queries']} queries, k={cfg['k']}")
    lines.append(f"  float64: {query['float64_us_per_query']:8.2f} us/query")
    sweep = result["small_batch"]
    lines.append(
        f"small batches (ms per call, fastest of {sweep['repeats']}; "
        f"batch_knn goes row by row up to {sweep['row_by_row_max']}):"
    )
    for name, cell in sweep["cells"].items():
        lines.append(f"  {name}:  " + "  ".join(f"{n[1:]:>7s}" for n in cell))
        for engine in ("rows_ms", "lockstep_ms"):
            lines.append(
                f"    {engine[:-3]:8s}" + "  ".join(f"{row[engine]:7.2f}" for row in cell.values())
            )
    return "\n".join(lines)


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the small CI configuration")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    size = dict(SMOKE_SIZE if args.smoke else FULL_SIZE)
    result = run_bench(seed=args.seed, sweep=SWEEP_SMOKE if args.smoke else SWEEP_FULL, **size)
    print(format_report(result))

    path = write_bench_artifact("BENCH_kernels.json", result)
    print(f"[saved to {path}]")


if __name__ == "__main__":
    main()
