"""Tests for local kd-tree construction."""

import numpy as np
import pytest

from repro.kdtree.build import (
    PHASE_DATA_PARALLEL,
    PHASE_SIMD_PACKING,
    PHASE_THREAD_PARALLEL,
    build_kdtree,
)
from repro.kdtree.tree import KDTreeConfig
from repro.kdtree.validate import check_tree_invariants


class TestBuildBasics:
    def test_build_covers_all_points(self, small_points):
        tree = build_kdtree(small_points)
        assert tree.n_points == small_points.shape[0]
        assert np.allclose(np.sort(tree.ids), np.arange(small_points.shape[0]))

    def test_invariants_hold(self, small_points):
        tree = build_kdtree(small_points)
        check_tree_invariants(tree)

    def test_leaf_sizes_respect_bucket(self, small_points):
        tree = build_kdtree(small_points, config=KDTreeConfig(bucket_size=16))
        assert int(tree.leaf_sizes().max()) <= 16

    def test_ids_carried_through_packing(self, small_points):
        custom_ids = np.arange(small_points.shape[0]) * 7 + 3
        tree = build_kdtree(small_points, ids=custom_ids)
        # Every packed id must map back to the original coordinates.
        lookup = {int(i): small_points[idx] for idx, i in enumerate(custom_ids)}
        for row in range(0, tree.n_points, 97):
            assert np.allclose(tree.points[row], lookup[int(tree.ids[row])])

    def test_mismatched_ids_rejected(self, small_points):
        with pytest.raises(ValueError):
            build_kdtree(small_points, ids=np.arange(10))

    def test_non_2d_points_rejected(self):
        with pytest.raises(ValueError):
            build_kdtree(np.zeros(10))

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            build_kdtree(np.zeros((10, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, small_points, bad):
        points = small_points.copy()
        points[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            build_kdtree(points)

    def test_invalid_threads_rejected(self, small_points):
        with pytest.raises(ValueError):
            build_kdtree(small_points, threads=0)

    def test_empty_input_builds_single_leaf(self):
        tree = build_kdtree(np.empty((0, 3)))
        assert tree.n_points == 0
        assert tree.n_nodes == 1
        assert tree.n_leaves == 1

    def test_single_point(self):
        tree = build_kdtree(np.array([[1.0, 2.0, 3.0]]))
        check_tree_invariants(tree)
        assert tree.n_leaves == 1

    def test_fewer_points_than_bucket(self):
        rng = np.random.default_rng(0)
        tree = build_kdtree(rng.normal(size=(10, 3)))
        assert tree.n_nodes == 1

    def test_determinism(self, small_points):
        t1 = build_kdtree(small_points, config=KDTreeConfig(seed=5))
        t2 = build_kdtree(small_points, config=KDTreeConfig(seed=5))
        assert np.array_equal(t1.split_val, t2.split_val, equal_nan=True)
        assert np.array_equal(t1.ids, t2.ids)


class TestDegenerateData:
    def test_all_identical_points_force_leaf(self):
        points = np.ones((200, 3))
        tree = build_kdtree(points, config=KDTreeConfig(bucket_size=32))
        check_tree_invariants(tree)
        assert tree.stats.forced_leaves >= 1

    def test_heavy_duplication_still_valid(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(20, 3))
        points = np.repeat(base, 100, axis=0)
        tree = build_kdtree(points)
        check_tree_invariants(tree)

    def test_single_discriminating_dimension(self):
        rng = np.random.default_rng(2)
        points = np.zeros((1000, 3))
        points[:, 1] = rng.normal(size=1000)
        tree = build_kdtree(points)
        check_tree_invariants(tree)
        internal = tree.split_dim[tree.split_dim >= 0]
        assert np.all(internal == 1)


class TestPhaseAccounting:
    def test_phases_recorded(self, small_points):
        tree = build_kdtree(small_points, threads=4)
        phases = tree.stats.phase_counters
        assert PHASE_DATA_PARALLEL in phases
        assert PHASE_SIMD_PACKING in phases
        assert phases[PHASE_SIMD_PACKING].bytes_streamed > 0

    def test_thread_parallel_phase_used_for_large_builds(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(20_000, 3))
        tree = build_kdtree(points, threads=2, config=KDTreeConfig(data_parallel_factor=4))
        assert tree.stats.thread_parallel_subtrees > 0
        assert tree.stats.phase_counters[PHASE_THREAD_PARALLEL].elements_moved > 0

    def test_single_thread_fewer_data_parallel_levels(self, small_points):
        t1 = build_kdtree(small_points, threads=1, config=KDTreeConfig(data_parallel_factor=2))
        t24 = build_kdtree(small_points, threads=24, config=KDTreeConfig(data_parallel_factor=2))
        assert t1.stats.data_parallel_levels <= t24.stats.data_parallel_levels

    def test_stats_merge_into(self, small_points):
        tree = build_kdtree(small_points)
        sink = {}
        tree.stats.merge_into(sink)
        assert PHASE_SIMD_PACKING in sink


class TestConfigurations:
    @pytest.mark.parametrize("config", [
        KDTreeConfig(),
        KDTreeConfig.flann_like(),
        KDTreeConfig.ann_like(),
        KDTreeConfig(split_value_strategy="exact_median"),
        KDTreeConfig(split_dim_strategy="round_robin"),
        KDTreeConfig(binning="searchsorted"),
        KDTreeConfig(bucket_size=8),
        KDTreeConfig(bucket_size=128),
    ])
    def test_all_configs_produce_valid_trees(self, small_points, config):
        tree = build_kdtree(small_points, config=config)
        check_tree_invariants(tree)

    def test_bucket_size_controls_leaf_count(self, small_points):
        small_buckets = build_kdtree(small_points, config=KDTreeConfig(bucket_size=8))
        big_buckets = build_kdtree(small_points, config=KDTreeConfig(bucket_size=128))
        assert small_buckets.n_leaves > big_buckets.n_leaves

    def test_invalid_bucket_size_rejected(self):
        with pytest.raises(ValueError):
            KDTreeConfig(bucket_size=0)

    def test_invalid_data_parallel_factor_rejected(self):
        with pytest.raises(ValueError):
            KDTreeConfig(data_parallel_factor=0)

    def test_median_split_is_balanced(self, small_points):
        tree = build_kdtree(small_points, config=KDTreeConfig())
        # Approximately balanced: depth within 2x of the ideal log2(n/bucket).
        ideal = np.ceil(np.log2(small_points.shape[0] / tree.config.bucket_size))
        assert tree.depth() <= 2 * ideal

    def test_midpoint_split_can_be_deeper_on_clustered_data(self, cosmo_points):
        balanced = build_kdtree(cosmo_points, config=KDTreeConfig())
        midpoint = build_kdtree(cosmo_points, config=KDTreeConfig.ann_like())
        assert midpoint.depth() >= balanced.depth()
