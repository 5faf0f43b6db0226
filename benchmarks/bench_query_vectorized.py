"""Microbenchmark: the lockstep batched KNN engine vs the row-by-row one.

Times the lockstep array traversal (``_batch_knn_lockstep``) against the
row-by-row loop (:func:`repro.kdtree.query.batch_knn_scalar`, one
single-query search per row) on the same tree and verifies they return
identical neighbours, ids and work counters.  Run directly, it checks a
3-D tree and one at the paper's 10-D Daya Bay width, each at its default
leaf size (32 and 128 points).  Both sides are pinned to their engine,
never :func:`repro.kdtree.query.batch_knn`, which picks between the two
per call and would compare an engine with itself.  The row-by-row side is
measured on a query subsample and extrapolated, since at this batch size
it is the slower engine.

Run under the pytest-benchmark harness like the figure benchmarks, or
directly for a quick reading::

    PYTHONPATH=src python benchmarks/bench_query_vectorized.py          # full size
    PYTHONPATH=src python benchmarks/bench_query_vectorized.py --smoke  # CI size
"""

from __future__ import annotations

import time

import numpy as np

from repro.kdtree.build import build_kdtree
from repro.kdtree.query import _batch_knn_lockstep, batch_knn_scalar

#: Acceptance-scale problem (paper-style single-node query workload).
FULL_SIZE = dict(n_points=50_000, n_queries=10_000, k=8, scalar_sample=1_000)
#: Small configuration for CI smoke runs.
SMOKE_SIZE = dict(n_points=5_000, n_queries=1_000, k=8, scalar_sample=250)
#: At 10k queries the lockstep engine must still win clearly.  (It measured
#: 8.2x while the row-by-row side ran 162 us/query; that side now runs 84,
#: which moved the ratio to 3.9x with the lockstep time unchanged.)
SPEEDUP_FLOOR = 2.5


def run_comparison(
    n_points: int, n_queries: int, k: int, scalar_sample: int, dims: int = 3, seed: int = 1
):
    """Build, query both ways, and return a result dict with timings."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, dims))
    queries = rng.normal(size=(n_queries, dims))
    tree = build_kdtree(points)

    t0 = time.perf_counter()
    d_vec, i_vec, stats_vec = _batch_knn_lockstep(tree, queries, k)
    vectorized_s = time.perf_counter() - t0

    sample = min(scalar_sample, n_queries)
    t0 = time.perf_counter()
    d_ref, i_ref, stats_ref = batch_knn_scalar(tree, queries[:sample], k)
    scalar_s = (time.perf_counter() - t0) * (n_queries / sample)

    assert np.array_equal(d_vec[:sample], d_ref), "lockstep distances diverge from row-by-row"
    assert np.array_equal(i_vec[:sample], i_ref), "lockstep ids diverge from row-by-row"
    assert stats_vec.queries == n_queries
    # The same comparison down to one row, where batch_knn itself would
    # have handed both sides to the row-by-row engine.
    for n in (1, 2, 16):
        small_vec = _batch_knn_lockstep(tree, queries[:n], k)
        small_ref = batch_knn_scalar(tree, queries[:n], k)
        assert np.array_equal(small_vec[0], small_ref[0]), f"distances diverge at {n} rows"
        assert np.array_equal(small_vec[1], small_ref[1]), f"ids diverge at {n} rows"
        assert small_vec[2] == small_ref[2], f"work counters diverge at {n} rows"

    speedup = scalar_s / vectorized_s
    text = "\n".join(
        [
            f"batched KNN query: {n_points} points, {dims}-D, "
            f"leaf {tree.config.bucket_size}, {n_queries} queries, k={k}",
            f"  lockstep engine          : {vectorized_s * 1e6 / n_queries:9.2f} us/query  ({vectorized_s:.3f} s)",
            f"  row-by-row engine (extrap): {scalar_s * 1e6 / n_queries:8.2f} us/query  ({scalar_s:.3f} s)",
            f"  speedup                  : {speedup:9.1f} x",
            f"  nodes visited/query      : {stats_vec.nodes_visited / n_queries:9.1f}",
            f"  distance comps/query     : {stats_vec.distance_computations / n_queries:9.1f}",
        ]
    )
    return {"speedup": speedup, "vectorized_s": vectorized_s, "scalar_s": scalar_s, "text": text}


def test_query_vectorized_speedup(benchmark, record_result):
    from conftest import run_once

    result = run_once(benchmark, run_comparison, **FULL_SIZE)
    record_result("query_vectorized", result["text"])
    assert result["speedup"] >= SPEEDUP_FLOOR


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the small CI configuration")
    parser.add_argument("--n-points", type=int, default=None)
    parser.add_argument("--n-queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    args = parser.parse_args()

    size = dict(SMOKE_SIZE if args.smoke else FULL_SIZE)
    if args.n_points is not None:
        size["n_points"] = args.n_points
    if args.n_queries is not None:
        size["n_queries"] = args.n_queries
    if args.k is not None:
        size["k"] = args.k

    result = run_comparison(**size)
    print(result["text"])
    # The 10-D tree runs through the same identity asserts; the speedup
    # floor is a 3-D acceptance figure and is not applied to it.
    print(run_comparison(**size, dims=10)["text"])
    if not args.smoke and result["speedup"] < SPEEDUP_FLOOR:
        raise SystemExit(
            f"speedup {result['speedup']:.1f}x below the {SPEEDUP_FLOOR}x acceptance floor"
        )


if __name__ == "__main__":
    main()
