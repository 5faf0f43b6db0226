"""Tests for the bounded max-heap, the batched top-k and the top-k merges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree.heap import BatchTopK, BoundedMaxHeap, merge_topk, merge_topk_rows


class TestBoundedMaxHeap:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            BoundedMaxHeap(0)

    def test_worst_is_inf_until_full(self):
        heap = BoundedMaxHeap(3)
        heap.push(1.0, 1)
        heap.push(2.0, 2)
        assert heap.worst() == np.inf
        heap.push(3.0, 3)
        assert heap.worst() == 3.0

    def test_push_replaces_farthest_when_full(self):
        heap = BoundedMaxHeap(2)
        heap.push(5.0, 1)
        heap.push(3.0, 2)
        assert heap.push(1.0, 3) is True
        dists, ids = heap.sorted_items()
        assert list(ids) == [3, 2]
        assert list(dists) == [1.0, 3.0]

    def test_push_rejects_farther_candidate_when_full(self):
        heap = BoundedMaxHeap(2)
        heap.push(1.0, 1)
        heap.push(2.0, 2)
        assert heap.push(5.0, 3) is False
        assert heap.worst() == 2.0

    def test_sorted_items_ascending(self):
        heap = BoundedMaxHeap(4)
        for d, i in [(4.0, 4), (1.0, 1), (3.0, 3), (2.0, 2)]:
            heap.push(d, i)
        dists, ids = heap.sorted_items()
        assert list(dists) == [1.0, 2.0, 3.0, 4.0]
        assert list(ids) == [1, 2, 3, 4]

    def test_len_and_is_full(self):
        heap = BoundedMaxHeap(2)
        assert len(heap) == 0 and not heap.is_full
        heap.push(1.0, 1)
        heap.push(2.0, 2)
        assert len(heap) == 2 and heap.is_full

    def test_push_many(self):
        heap = BoundedMaxHeap(3)
        kept = heap.push_many(np.array([5.0, 1.0, 2.0, 9.0]), np.array([5, 1, 2, 9]))
        assert kept >= 3
        dists, _ = heap.sorted_items()
        assert list(dists) == [1.0, 2.0, 5.0]

    def test_max_distance_empty(self):
        assert BoundedMaxHeap(3).max_distance() == np.inf

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_topk(self, values, k):
        heap = BoundedMaxHeap(k)
        for i, v in enumerate(values):
            heap.push(v, i)
        dists, _ = heap.sorted_items()
        expected = np.sort(np.asarray(values))[: min(k, len(values))]
        assert np.allclose(np.sort(dists), expected)


class TestBatchTopK:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            BatchTopK(4, 0)

    def test_starts_padded(self):
        topk = BatchTopK(3, 2)
        assert np.all(np.isinf(topk.dists))
        assert np.all(topk.ids == -1)
        assert np.all(np.isinf(topk.bounds()))

    def test_bounds_is_inf_until_full(self):
        topk = BatchTopK(1, 3)
        topk.update(np.array([0]), np.array([[1.0, 2.0]]), np.array([[1, 2]]))
        assert topk.bounds()[0] == np.inf
        topk.update(np.array([0]), np.array([[3.0]]), np.array([[3]]))
        assert topk.bounds()[0] == 3.0

    def test_bounds_is_live_view(self):
        topk = BatchTopK(1, 2)
        bounds = topk.bounds()
        topk.update(np.array([0]), np.array([[2.0, 1.0]]), np.array([[2, 1]]))
        assert bounds[0] == 2.0

    def test_rows_kept_sorted_with_padding(self):
        topk = BatchTopK(2, 3)
        topk.update(
            np.array([0, 1]),
            np.array([[4.0, 1.0], [2.0, np.inf]]),
            np.array([[4, 1], [2, -1]]),
        )
        assert list(topk.dists[0][:2]) == [1.0, 4.0]
        assert np.isinf(topk.dists[0][2])
        assert list(topk.ids[1]) == [2, -1, -1]

    def test_tie_with_worst_is_rejected(self):
        topk = BatchTopK(1, 2)
        topk.update(np.array([0]), np.array([[1.0, 2.0]]), np.array([[1, 2]]))
        accepted = topk.update(np.array([0]), np.array([[2.0]]), np.array([[9]]))
        assert accepted[0] == 0
        assert list(topk.ids[0]) == [1, 2]

    @given(
        batches=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=12),
            min_size=1,
            max_size=6,
        ),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_heap_and_counts(self, batches, k):
        """Accepted counts and final contents replicate BoundedMaxHeap pushes."""
        topk = BatchTopK(1, k)
        heap = BoundedMaxHeap(k)
        next_id = 0
        for batch in batches:
            ids = np.arange(next_id, next_id + len(batch))
            next_id += len(batch)
            # Scalar reference: strict-< pushes in ascending distance order.
            pushes = 0
            order = np.argsort(np.asarray(batch), kind="stable")
            for j in order:
                if batch[j] < heap.worst():
                    heap.push(float(batch[j]), int(ids[j]))
                    pushes += 1
            accepted = topk.update(
                np.array([0]), np.asarray([batch], dtype=np.float64), ids[None, :]
            )
            assert accepted[0] == pushes
        heap_d, heap_i = heap.sorted_items()
        found = int(np.isfinite(topk.dists[0]).sum())
        assert np.array_equal(topk.dists[0][:found], heap_d)
        # Which of several candidates tied at the k-th distance survives is
        # unspecified (the heap evicts in heap order, the batch merge in
        # stored order), so ids are only compared when all distances differ.
        all_values = [v for batch in batches for v in batch]
        if len(set(all_values)) == len(all_values):
            assert sorted(topk.ids[0][:found].tolist()) == sorted(heap_i.tolist())


class TestDtypeHandling:
    """Non-float64 candidates are widened into the heaps' float64 storage."""

    def test_push_many_accepts_float32(self):
        heap = BoundedMaxHeap(3)
        dists = np.array([5.0, 1.0, 2.0, 9.0], dtype=np.float32)
        kept = heap.push_many(dists, np.array([5, 1, 2, 9], dtype=np.int32))
        assert kept >= 3
        sorted_d, sorted_i = heap.sorted_items()
        assert sorted_d.dtype == np.float64
        assert list(sorted_d) == [1.0, 2.0, 5.0]
        assert list(sorted_i) == [1, 2, 5]

    def test_batch_topk_converts_candidates_to_row_dtype(self):
        # float32 candidates offered to float64 rows widen losslessly.
        topk = BatchTopK(1, 2)
        accepted = topk.update(
            np.array([0]),
            np.array([[2.0, 1.0]], dtype=np.float32),
            np.array([[2, 1]]),
        )
        assert accepted[0] == 2
        assert topk.dists.dtype == np.float64
        assert list(topk.dists[0]) == [1.0, 2.0]


class TestMergeTopk:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            merge_topk(0, [], [], [], [])

    def test_merges_and_sorts(self):
        d, i = merge_topk(3, [1.0, 4.0], [1, 4], [2.0, 3.0], [2, 3])
        assert list(d) == [1.0, 2.0, 3.0]
        assert list(i) == [1, 2, 3]

    def test_handles_empty_sides(self):
        d, i = merge_topk(2, [], [], [1.0], [7])
        assert list(i) == [7]
        d, i = merge_topk(2, [1.0], [7], [], [])
        assert list(i) == [7]

    def test_deduplicates_by_id(self):
        d, i = merge_topk(3, [1.0, 2.0], [10, 20], [1.0, 3.0], [10, 30])
        assert sorted(i.tolist()) == [10, 20, 30]

    def test_keeps_only_k(self):
        d, i = merge_topk(2, [1.0, 2.0, 3.0], [1, 2, 3], [0.5], [4])
        assert len(d) == 2
        assert list(i) == [4, 1]

    def test_ignores_inf_minus_one_padding(self):
        """Padded rows from batch_knn can be merged without spurious entries."""
        d, i = merge_topk(
            4,
            [0.5, np.inf, np.inf],
            [3, -1, -1],
            [1.5, np.inf],
            [8, -1],
        )
        assert list(i) == [3, 8]
        assert list(d) == [0.5, 1.5]

    def test_all_padding_yields_empty(self):
        d, i = merge_topk(3, [np.inf, np.inf], [-1, -1], [np.inf], [-1])
        assert d.size == 0
        assert i.size == 0

    def test_duplicate_ids_keep_min_distance_with_padding(self):
        d, i = merge_topk(
            3,
            [1.0, 2.0, np.inf],
            [10, 20, -1],
            [0.5, 2.0, np.inf],
            [20, 30, -1],
        )
        assert list(i) == [20, 10, 30]
        assert list(d) == [0.5, 1.0, 2.0]

    @given(
        a=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=20),
        b=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=20),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_result_is_sorted_and_bounded(self, a, b, k):
        ids_a = np.arange(len(a))
        ids_b = np.arange(1000, 1000 + len(b))
        d, i = merge_topk(k, a, ids_a, b, ids_b)
        assert len(d) <= k
        assert np.all(np.diff(d) >= 0)
        assert len(set(i.tolist())) == len(i)


class TestMergeTopkRows:
    def test_requires_positive_k(self):
        empty = np.empty((1, 0))
        empty_i = np.empty((1, 0), dtype=np.int64)
        with pytest.raises(ValueError):
            merge_topk_rows(0, empty, empty_i, empty, empty_i)

    def test_merges_each_row_independently(self):
        d, i = merge_topk_rows(
            2,
            np.array([[1.0, 4.0], [9.0, 10.0]]),
            np.array([[1, 4], [9, 10]]),
            np.array([[2.0, 3.0], [0.5, 11.0]]),
            np.array([[2, 3], [5, 11]]),
        )
        assert d.shape == (2, 2) and i.shape == (2, 2)
        assert list(i[0]) == [1, 2]
        assert list(i[1]) == [5, 9]
        assert list(d[1]) == [0.5, 9.0]

    def test_pads_short_rows_with_inf_minus_one(self):
        d, i = merge_topk_rows(
            4,
            np.array([[0.5, np.inf, np.inf]]),
            np.array([[3, -1, -1]]),
            np.array([[1.5, np.inf]]),
            np.array([[8, -1]]),
        )
        assert list(i[0]) == [3, 8, -1, -1]
        assert list(d[0][:2]) == [0.5, 1.5]
        assert np.all(np.isinf(d[0][2:]))

    def test_all_padding_rows_stay_padded(self):
        d, i = merge_topk_rows(
            3,
            np.full((2, 2), np.inf),
            np.full((2, 2), -1, dtype=np.int64),
            np.full((2, 1), np.inf),
            np.full((2, 1), -1, dtype=np.int64),
        )
        assert np.all(np.isinf(d))
        assert np.all(i == -1)

    def test_dedup_keeps_min_distance_per_id(self):
        d, i = merge_topk_rows(
            3,
            np.array([[1.0, 2.0]]),
            np.array([[10, 20]]),
            np.array([[0.5, 2.5]]),
            np.array([[20, 30]]),
            dedup_ids=True,
        )
        assert list(i[0]) == [20, 10, 30]
        assert list(d[0]) == [0.5, 1.0, 2.5]

    def test_no_dedup_keeps_duplicate_ids(self):
        d, i = merge_topk_rows(
            4,
            np.array([[1.0, 2.0]]),
            np.array([[10, 20]]),
            np.array([[0.5, 2.5]]),
            np.array([[20, 30]]),
        )
        # Disjoint-source merges skip the dedup pass: id 20 appears twice.
        assert sorted(i[0].tolist()) == [10, 20, 20, 30]
        assert list(d[0]) == [0.5, 1.0, 2.0, 2.5]

    def test_matches_merge_topk_row_by_row(self):
        rng = np.random.default_rng(42)
        rows, k = 5, 4
        d_a = np.sort(rng.uniform(size=(rows, 6)), axis=1)
        d_b = np.sort(rng.uniform(size=(rows, 3)), axis=1)
        i_a = rng.permutation(rows * 6).reshape(rows, 6)
        i_b = rng.permutation(np.arange(1000, 1000 + rows * 3)).reshape(rows, 3)
        for dedup in (False, True):
            d, i = merge_topk_rows(k, d_a, i_a, d_b, i_b, dedup_ids=dedup)
            for r in range(rows):
                ref_d, ref_i = merge_topk(k, d_a[r], i_a[r], d_b[r], i_b[r])
                assert np.array_equal(d[r][: ref_d.size], ref_d)
                assert np.array_equal(i[r][: ref_i.size], ref_i)

    def test_dedup_matches_merge_topk_on_overlapping_ids(self):
        rng = np.random.default_rng(7)
        rows, k = 4, 3
        d_a = np.sort(rng.uniform(size=(rows, 5)), axis=1)
        d_b = np.sort(rng.uniform(size=(rows, 5)), axis=1)
        # Overlapping id pools per row force the dedup path to matter.
        i_a = np.stack([rng.choice(6, size=5, replace=False) for _ in range(rows)])
        i_b = np.stack([rng.choice(6, size=5, replace=False) for _ in range(rows)])
        d, i = merge_topk_rows(k, d_a, i_a, d_b, i_b, dedup_ids=True)
        for r in range(rows):
            ref_d, ref_i = merge_topk(k, d_a[r], i_a[r], d_b[r], i_b[r])
            assert np.array_equal(d[r][: ref_d.size], ref_d)
            assert np.array_equal(i[r][: ref_i.size], ref_i)

    def test_does_not_mutate_inputs(self):
        d_a = np.array([[3.0, 1.0]])
        i_a = np.array([[3, 1]])
        d_b = np.array([[2.0]])
        i_b = np.array([[2]])
        copies = [arr.copy() for arr in (d_a, i_a, d_b, i_b)]
        merge_topk_rows(2, d_a, i_a, d_b, i_b, dedup_ids=True)
        for arr, ref in zip((d_a, i_a, d_b, i_b), copies):
            assert np.array_equal(arr, ref)
