"""Microbenchmark: level-synchronous vectorised build vs the scalar path.

Times :func:`repro.kdtree.build.build_kdtree` (whole-frontier lockstep
construction) against :func:`repro.kdtree.build.build_kdtree_scalar` (one
Python iteration per node) on the same points, checks the vectorised tree
validates clean, and — under a deterministic strategy — that both builders
produce byte-identical leaf contents.  A second A/B prices a streaming
rebuild: :func:`repro.kdtree.repack.repack_kdtree` (re-pack under the kept
split planes) against a refit over the same 50k-point live set after 256
deletes and 256 inserts, with distances asserted bit-equal.

Run under the pytest-benchmark harness like the figure benchmarks, or
directly for a quick reading::

    PYTHONPATH=src python benchmarks/bench_build_vectorized.py          # full size
    PYTHONPATH=src python benchmarks/bench_build_vectorized.py --smoke  # CI size
"""

from __future__ import annotations

import time

import numpy as np

from repro.kdtree.build import build_kdtree, build_kdtree_scalar
from repro.kdtree.query import batch_knn
from repro.kdtree.repack import repack_kdtree
from repro.kdtree.tree import KDTreeConfig
from repro.kdtree.validate import check_tree_invariants

#: Acceptance-scale problem: 200k uniform 3-D points, PANDA configuration.
FULL_SIZE = dict(n_points=200_000, dims=3, bucket_size=32)
#: Small configuration for CI smoke runs.
SMOKE_SIZE = dict(n_points=20_000, dims=3, bucket_size=32)


def run_comparison(n_points: int, dims: int, bucket_size: int, seed: int = 1):
    """Build both ways, verify, and return a result dict with timings."""
    rng = np.random.default_rng(seed)
    points = rng.random((n_points, dims))
    config = KDTreeConfig(bucket_size=bucket_size)  # PANDA defaults

    # Warm up allocator/ufunc caches so neither side pays first-call costs,
    # then take the best of three (the builds are deterministic).
    warmup = points[: min(n_points, 5_000)]
    build_kdtree(warmup, config=config)
    build_kdtree_scalar(warmup, config=config)

    vectorized_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        tree_vec = build_kdtree(points, config=config)
        vectorized_s = min(vectorized_s, time.perf_counter() - t0)

    scalar_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        tree_ref = build_kdtree_scalar(points, config=config)
        scalar_s = min(scalar_s, time.perf_counter() - t0)

    check_tree_invariants(tree_vec)
    assert tree_vec.n_points == tree_ref.n_points
    assert tree_vec.n_leaves == tree_ref.n_leaves

    # Deterministic-strategy identity check: byte-identical trees, leaf
    # contents included (the sampled PANDA strategies above only consume the
    # RNG in a different order, so they are compared structurally).
    det_config = KDTreeConfig(
        split_dim_strategy="full_variance",
        split_value_strategy="exact_median",
        bucket_size=bucket_size,
    )
    det_vec = build_kdtree(points, config=det_config)
    det_ref = build_kdtree_scalar(points, config=det_config)
    assert np.array_equal(det_vec.ids, det_ref.ids), "leaf contents diverge"
    assert np.array_equal(det_vec.points, det_ref.points), "packed points diverge"
    assert np.array_equal(det_vec.split_val, det_ref.split_val, equal_nan=True)
    assert np.array_equal(det_vec.start, det_ref.start)
    assert np.array_equal(det_vec.count, det_ref.count)

    speedup = scalar_s / vectorized_s
    text = "\n".join(
        [
            f"kd-tree construction: {n_points} points, {dims}-D, bucket {bucket_size} (PANDA config)",
            f"  vectorized build_kdtree  : {vectorized_s * 1e9 / n_points:9.1f} ns/point  ({vectorized_s:.3f} s)",
            f"  scalar reference         : {scalar_s * 1e9 / n_points:9.1f} ns/point  ({scalar_s:.3f} s)",
            f"  speedup                  : {speedup:9.1f} x",
            f"  nodes / leaves           : {tree_vec.n_nodes} / {tree_vec.n_leaves}",
            f"  deterministic A/B        : identical leaf contents",
        ]
    )
    return {"speedup": speedup, "vectorized_s": vectorized_s, "scalar_s": scalar_s, "text": text}


#: Streaming-rebuild A/B: the ``RebuildPolicy`` tombstone budget of deletes.
REPACK_SIZE = dict(n_points=50_000, dims=3, n_deleted=256, n_inserted=256, n_queries=1_000)


def run_repack_comparison(
    n_points: int, dims: int, n_deleted: int, n_inserted: int, n_queries: int, seed: int = 2
):
    """Fold deletes and inserts into a tree by re-packing vs by refitting."""
    rng = np.random.default_rng(seed)
    points = rng.random((n_points, dims))
    tree = build_kdtree(points)
    keep = np.ones(n_points, dtype=bool)
    keep[rng.choice(n_points, size=n_deleted, replace=False)] = False
    fresh = rng.random((n_inserted, dims))
    fresh_ids = np.arange(n_points, n_points + n_inserted)
    live_points = np.concatenate([tree.points[keep], fresh])
    live_ids = np.concatenate([tree.ids[keep], fresh_ids])

    repack_s = refit_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        repacked = repack_kdtree(tree, keep, fresh, fresh_ids)
        repack_s = min(repack_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        refit = build_kdtree(live_points, ids=live_ids, config=tree.config)
        refit_s = min(refit_s, time.perf_counter() - t0)

    check_tree_invariants(repacked)
    queries = rng.random((n_queries, dims))
    d_repack, _, _ = batch_knn(repacked, queries, 8)
    d_refit, _, _ = batch_knn(refit, queries, 8)
    assert np.array_equal(d_repack, d_refit), "re-packed tree answers differ from the refit"
    text = "\n".join(
        [
            f"streaming rebuild: {n_points} points, -{n_deleted} +{n_inserted}, {dims}-D",
            f"  repack_kdtree (fold)     : {repack_s * 1e3:9.2f} ms",
            f"  build_kdtree (refit)     : {refit_s * 1e3:9.2f} ms",
            f"  speedup                  : {refit_s / repack_s:9.1f} x",
            f"  nodes repack / refit     : {repacked.n_nodes} / {refit.n_nodes}",
            f"  distances, k=8           : bit-equal over {n_queries} queries",
        ]
    )
    return {"speedup": refit_s / repack_s, "repack_s": repack_s, "refit_s": refit_s, "text": text}


def test_build_vectorized_speedup(benchmark, record_result):
    from conftest import run_once

    result = run_once(benchmark, run_comparison, **FULL_SIZE)
    record_result("build_vectorized", result["text"])
    assert result["speedup"] >= 5.0


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the small CI configuration")
    parser.add_argument("--n-points", type=int, default=None)
    parser.add_argument("--dims", type=int, default=None)
    parser.add_argument("--bucket-size", type=int, default=None)
    args = parser.parse_args()

    size = dict(SMOKE_SIZE if args.smoke else FULL_SIZE)
    if args.n_points is not None:
        size["n_points"] = args.n_points
    if args.dims is not None:
        size["dims"] = args.dims
    if args.bucket_size is not None:
        size["bucket_size"] = args.bucket_size

    result = run_comparison(**size)
    print(result["text"])
    print(run_repack_comparison(**REPACK_SIZE)["text"])
    if not args.smoke and result["speedup"] < 5.0:
        raise SystemExit(f"speedup {result['speedup']:.1f}x below the 5x acceptance floor")


if __name__ == "__main__":
    main()
