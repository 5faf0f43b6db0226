"""Array-based kd-tree kernels: construction, querying and validation.

This package implements the single-node building blocks of PANDA:

* :mod:`~repro.kdtree.splitters` — split-dimension and split-point rules
  (PANDA's sampled max-variance dimension + sampled-histogram median, plus
  the FLANN-style and ANN-style rules used as baselines);
* :mod:`~repro.kdtree.median` — the approximate median estimator built from
  a non-uniform-bin histogram over sampled interval points, including the
  32-stride sub-interval accelerated binning described in Section III-A1;
* :mod:`~repro.kdtree.repack` — re-packing a built tree around deleted and
  inserted points under its existing split planes (streaming rebuilds);
* :mod:`~repro.kdtree.build` — breadth-first ("data parallel") +
  depth-first ("thread parallel") construction with leaf buckets packed
  contiguously ("SIMD packing"), as a level-synchronous vectorised build
  and a per-node scalar reference that produce identical trees under
  deterministic strategies;
* :mod:`~repro.kdtree.query` — Algorithm 1: bounded-radius k-nearest
  neighbour search with distance-based pruning, as a single-query
  traversal and as a vectorised lockstep traversal of whole query batches,
  chosen per call by ``batch_knn`` with identical answers either way;
* :mod:`~repro.kdtree.leafblocks` — the distance kernels both query
  engines share, over structure-of-arrays leaf columns;
* :mod:`~repro.kdtree.tree` — the flat array representation shared by all
  of the above;
* :mod:`~repro.kdtree.validate` — structural invariants used by tests.
"""

from repro.kdtree.bucket import BucketStore
from repro.kdtree.heap import BatchTopK, merge_topk
from repro.kdtree.median import (
    HistogramMedianEstimator,
    approximate_median,
    batched_histogram_median,
    searchsorted_binning,
    sorted_segment_matrix,
    subinterval_binning,
)
from repro.kdtree.splitters import (
    SplitContext,
    batched_choose_split_dimensions,
    batched_choose_split_values,
    choose_split_dimension,
    choose_split_value,
    SPLIT_DIM_STRATEGIES,
    SPLIT_VALUE_STRATEGIES,
)
from repro.kdtree.leafblocks import gather_columns_sq, scan_columns_sq
from repro.kdtree.tree import KDTree, KDTreeConfig, TreeBuildStats
from repro.kdtree.build import build_kdtree, build_kdtree_scalar
from repro.kdtree.repack import repack_kdtree
from repro.kdtree.query import (
    KNNResult,
    QueryStats,
    batch_knn,
    batch_knn_scalar,
    brute_force_knn,
    knn_search,
)
from repro.kdtree.serialize import load_kdtree, save_kdtree
from repro.kdtree.validate import check_snapshot_roundtrip, check_tree_invariants

__all__ = [
    "BucketStore",
    "BatchTopK",
    "merge_topk",
    "HistogramMedianEstimator",
    "approximate_median",
    "batched_histogram_median",
    "searchsorted_binning",
    "sorted_segment_matrix",
    "subinterval_binning",
    "SplitContext",
    "batched_choose_split_dimensions",
    "batched_choose_split_values",
    "choose_split_dimension",
    "choose_split_value",
    "SPLIT_DIM_STRATEGIES",
    "SPLIT_VALUE_STRATEGIES",
    "gather_columns_sq",
    "scan_columns_sq",
    "KDTree",
    "KDTreeConfig",
    "TreeBuildStats",
    "build_kdtree",
    "build_kdtree_scalar",
    "repack_kdtree",
    "KNNResult",
    "QueryStats",
    "batch_knn",
    "batch_knn_scalar",
    "brute_force_knn",
    "knn_search",
    "check_tree_invariants",
    "check_snapshot_roundtrip",
    "save_kdtree",
    "load_kdtree",
]
