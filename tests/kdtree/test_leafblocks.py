"""Tests for the SoA leaf columns and their distance kernels."""

import numpy as np

from repro.kdtree.build import build_kdtree
from repro.kdtree.leafblocks import gather_columns_sq, scan_columns_sq


class TestTreeColumns:
    def test_derived_from_leaf_ordered_points(self):
        rng = np.random.default_rng(0)
        tree = build_kdtree(rng.normal(size=(500, 3)))
        assert np.array_equal(tree.columns, tree.points.T)

    def test_columns_are_contiguous(self):
        rng = np.random.default_rng(1)
        tree = build_kdtree(rng.normal(size=(100, 4)))
        assert tree.columns.flags.c_contiguous
        assert tree.columns.dtype == np.float64
        assert tree.columns.shape == (4, 100)

    def test_derived_once_and_counted_in_memory(self):
        tree = build_kdtree(np.random.default_rng(2).normal(size=(64, 2)))
        before = tree.memory_bytes()
        columns = tree.columns
        assert tree.columns is columns
        assert tree.memory_bytes() == before + columns.nbytes


class TestKernelBitIdentity:
    """scan (per-leaf) and gather (batched) must score identical bits."""

    def test_scan_equals_gather(self):
        rng = np.random.default_rng(2)
        coords = np.ascontiguousarray((rng.normal(size=(200, 3)) * 100.0).T)
        query = rng.normal(size=3)
        start, count = 32, 64
        scanned = scan_columns_sq(coords, start, count, query)
        idx = np.arange(start, start + count)[None, :]
        gathered = gather_columns_sq(coords, idx, query[None, :])
        assert scanned.dtype == gathered.dtype == np.float64
        assert np.array_equal(scanned, gathered[0])

    def test_gather_batch_rows_independent(self):
        rng = np.random.default_rng(3)
        coords = np.ascontiguousarray(rng.normal(size=(64, 2)).T)
        queries = rng.normal(size=(5, 2))
        idx = rng.integers(0, 64, size=(5, 7))
        batched = gather_columns_sq(coords, idx, queries)
        for r in range(5):
            row = gather_columns_sq(coords, idx[r : r + 1], queries[r : r + 1])
            assert np.array_equal(batched[r], row[0])
