"""Property-based tests of the kd-tree kernels (hypothesis).

These target the core correctness invariants the rest of the system relies
on: any tree built over any point cloud must (a) satisfy the structural
invariants, (b) return exactly the brute-force nearest neighbours, and
(c) prune without ever losing a neighbour when given a radius bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kdtree.build import build_kdtree
from repro.kdtree.query import _batch_knn_lockstep, batch_knn_scalar, brute_force_knn, knn_search
from repro.kdtree.tree import KDTreeConfig
from repro.kdtree.validate import check_tree_invariants


def point_clouds(min_points: int = 1, max_points: int = 300, max_dims: int = 5):
    """Strategy producing float64 point clouds of modest size."""
    return st.integers(min_points, max_points).flatmap(
        lambda n: st.integers(1, max_dims).flatmap(
            lambda d: hnp.arrays(
                np.float64,
                (n, d),
                elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
            )
        )
    )


def _assert_engines_agree(tree, queries, k):
    """Both engines, pinned: these batches sit below ``batch_knn``'s crossover."""
    lockstep = _batch_knn_lockstep(tree, queries, k)
    rows = batch_knn_scalar(tree, queries, k)
    assert np.array_equal(lockstep[0], rows[0])
    assert np.array_equal(lockstep[1], rows[1])
    assert lockstep[2] == rows[2]
    return lockstep


class TestTreeProperties:
    @given(points=point_clouds(), bucket=st.sampled_from([4, 16, 32]))
    @settings(max_examples=60, deadline=None)
    def test_invariants_for_arbitrary_clouds(self, points, bucket):
        tree = build_kdtree(points, config=KDTreeConfig(bucket_size=bucket))
        check_tree_invariants(tree)
        assert tree.n_points == points.shape[0]

    @given(points=point_clouds(min_points=2, max_points=200), k=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_knn_matches_brute_force(self, points, k):
        tree = build_kdtree(points)
        queries = points[:: max(1, points.shape[0] // 10)]
        d, _, _ = _assert_engines_agree(tree, queries, k)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, k)
        assert np.allclose(d, bd, atol=1e-9)

    @given(points=point_clouds(min_points=5, max_points=200))
    @settings(max_examples=40, deadline=None)
    def test_packed_points_are_permutation(self, points):
        tree = build_kdtree(points)
        assert np.allclose(
            np.sort(tree.points, axis=0), np.sort(points, axis=0)
        )
        assert np.array_equal(np.sort(tree.ids), np.arange(points.shape[0]))

    @given(
        points=point_clouds(min_points=10, max_points=200, max_dims=3),
        k=st.integers(1, 5),
        radius=st.floats(0.01, 50.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_radius_bound_never_loses_neighbors(self, points, k, radius):
        tree = build_kdtree(points)
        query = points.mean(axis=0)
        bounded = knn_search(tree, query, k, radius=radius)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), query[None, :], k)
        expected = bd[0][(bd[0] <= radius) & np.isfinite(bd[0])]
        assert np.allclose(np.sort(bounded.distances), np.sort(expected), atol=1e-9)

    @given(points=point_clouds(min_points=2, max_points=150))
    @settings(max_examples=40, deadline=None)
    def test_query_on_indexed_point_returns_zero_distance(self, points):
        tree = build_kdtree(points)
        result = knn_search(tree, points[0], 1)
        assert result.distances[0] == pytest.approx(0.0, abs=1e-9)

    @given(
        duplicated=st.integers(2, 50),
        copies=st.integers(2, 30),
        k=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_duplicate_heavy_clouds(self, duplicated, copies, k):
        rng = np.random.default_rng(duplicated * 31 + copies)
        base = rng.normal(size=(duplicated, 3))
        points = np.repeat(base, copies, axis=0)
        tree = build_kdtree(points)
        check_tree_invariants(tree)
        d, _, _ = _assert_engines_agree(tree, base, k)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), base, k)
        assert np.allclose(d, bd)
