"""Tests for the sorted single-query top-k, the batched top-k and the top-k merges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree.heap import BatchTopK, merge_topk, merge_topk_rows, offer_sorted


class TestOfferSorted:
    def test_closer_candidate_replaces_last_when_full(self):
        top_d, top_i = [3.0, 5.0], [2, 1]
        assert offer_sorted(top_d, top_i, 2, [1.0], [3]) == 1
        assert top_d == [1.0, 3.0]
        assert top_i == [3, 2]

    def test_farther_or_tied_candidate_rejected_when_full(self):
        top_d, top_i = [1.0, 2.0], [1, 2]
        assert offer_sorted(top_d, top_i, 2, [2.0, 5.0], [3, 4]) == 0
        assert top_d == [1.0, 2.0]
        assert top_i == [1, 2]

    def test_kept_ascending_and_accepted_while_not_full(self):
        top_d, top_i = [2.0], [2]
        assert offer_sorted(top_d, top_i, 4, [1.0, 3.0, 4.0], [1, 3, 4]) == 3
        assert top_d == [1.0, 2.0, 3.0, 4.0]
        assert top_i == [1, 2, 3, 4]

    def test_tied_candidate_goes_after_held_entries(self):
        # The tie rule: first offered wins, so the later tie is the one
        # dropped when a closer candidate pushes the list past k.
        top_d, top_i = [1.0, 2.0], [10, 20]
        assert offer_sorted(top_d, top_i, 4, [1.0, 2.0], [11, 21]) == 2
        assert top_i == [10, 11, 20, 21]
        assert offer_sorted(top_d, top_i, 4, [0.5], [5]) == 1
        assert top_i == [5, 10, 11, 20]

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=10),
        chunk=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_topk(self, values, k, chunk):
        top_d, top_i = [], []
        for lo in range(0, len(values), chunk):
            block = sorted(zip(values[lo : lo + chunk], range(lo, lo + chunk)))
            offer_sorted(top_d, top_i, k, [d for d, _ in block], [i for _, i in block])
        # Stable argsort is the tie rule stated once: equal values keep
        # their offer order, so ids match too, not only distances.
        order = np.argsort(np.asarray(values), kind="stable")[:k]
        assert top_d == np.asarray(values)[order].tolist()
        assert top_i == order.tolist()


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
        """Accepted counts, distances and ids replicate ``offer_sorted``."""
        topk = BatchTopK(1, k)
        top_d, top_i = [], []
        next_id = 0
        for batch in batches:
            ids = np.arange(next_id, next_id + len(batch))
            next_id += len(batch)
            # Single-query reference: offers in ascending, stable order.
            order = np.argsort(np.asarray(batch), kind="stable")
            offered = offer_sorted(
                top_d, top_i, k, np.asarray(batch)[order].tolist(), ids[order].tolist()
            )
            accepted = topk.update(
                np.array([0]), np.asarray([batch], dtype=np.float64), ids[None, :]
            )
            assert accepted[0] == offered
        # One tie rule: ids are compared always, ties at the k-th included.
        assert topk.dists[0][: len(top_d)].tolist() == top_d
        assert topk.ids[0][: len(top_i)].tolist() == top_i
        assert np.all(topk.ids[0][len(top_i) :] == -1)


class TestDtypeHandling:
    """Non-float64 candidates are widened into the batch top-k's float64 storage."""

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
