"""Top-k candidate tracking for the k nearest neighbours found so far.

Algorithm 1 of the paper maintains a heap ``H`` of at most ``k`` candidates
ordered by distance to the query; its maximum is the pruning radius ``r'``.
Three implementations live here:

* :class:`BoundedMaxHeap` — a classic binary max-heap over parallel arrays
  (distances and point ids) used by the scalar single-query search;
* :class:`BatchTopK` — one ``(n_queries, k)`` pair of sorted arrays holding
  the candidate sets of a whole query batch at once, used by the vectorised
  batched traversal (the k-th column *is* the per-query pruning bound);
* :func:`merge_topk_rows` — the shared vectorised sorted-merge primitive:
  fold two ``(n, *)`` candidate blocks into per-row top-k, optionally
  deduplicating point ids.  The fleet router, the service's delta fusion
  and the rank-level :func:`merge_topk` are all built on it;
* :func:`merge_topk` — the 1-D rank-merge wrapper (duplicate ids removed,
  padding stripped) used when candidate sets come back from remote ranks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.analysis.annotations import exactness_path


class BoundedMaxHeap:
    """Fixed-capacity max-heap of (distance, id) pairs.

    The heap keeps at most ``k`` entries; pushing a closer candidate into a
    full heap evicts the current farthest one.  ``worst()`` returns the
    current pruning bound r' (infinite until the heap is full, exactly as in
    Algorithm 1 where pruning only starts once ``|H| = k``).
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._dist = np.empty(k, dtype=np.float64)
        self._ids = np.empty(k, dtype=np.int64)
        self._size = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        """True once k candidates are held."""
        return self._size == self.k

    def worst(self) -> float:
        """Current pruning radius r': max distance when full, +inf otherwise."""
        if self._size < self.k:
            return np.inf
        return float(self._dist[0])

    def max_distance(self) -> float:
        """Largest distance currently held (+inf when empty)."""
        if self._size == 0:
            return np.inf
        return float(self._dist[0])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, dist: float, point_id: int) -> bool:
        """Offer a candidate; returns True when it was kept.

        Mirrors Algorithm 1 lines 8-15: candidates are inserted while the
        heap is not full; afterwards only candidates closer than the current
        maximum replace the top.
        """
        if self._size < self.k:
            i = self._size
            self._dist[i] = dist
            self._ids[i] = point_id
            self._size += 1
            self._sift_up(i)
            return True
        if dist < self._dist[0]:
            self._dist[0] = dist
            self._ids[0] = point_id
            self._sift_down(0)
            return True
        return False

    def push_many(self, dists: np.ndarray, ids: np.ndarray) -> int:
        """Offer a batch of candidates; returns how many were kept.

        Input dtype is handled explicitly: one vectorised conversion up
        front instead of a per-element ``float()``/``int()`` cast per push.
        """
        dist_list = np.asarray(dists, dtype=np.float64).tolist()
        id_list = np.asarray(ids, dtype=np.int64).tolist()
        kept = 0
        for d, i in zip(dist_list, id_list):
            if self.push(d, i):
                kept += 1
        return kept

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def sorted_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (distances, ids) sorted ascending by distance."""
        order = np.argsort(self._dist[: self._size], kind="stable")
        return self._dist[: self._size][order].copy(), self._ids[: self._size][order].copy()

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (distances, ids) in heap order (no copy of heap layout)."""
        return self._dist[: self._size].copy(), self._ids[: self._size].copy()

    # ------------------------------------------------------------------
    # Heap plumbing
    # ------------------------------------------------------------------
    def _sift_up(self, i: int) -> None:
        dist = self._dist
        ids = self._ids
        while i > 0:
            parent = (i - 1) >> 1
            if dist[i] > dist[parent]:
                dist[i], dist[parent] = dist[parent], dist[i]
                ids[i], ids[parent] = ids[parent], ids[i]
                i = parent
            else:
                break

    def _sift_down(self, i: int) -> None:
        dist = self._dist
        ids = self._ids
        size = self._size
        while True:
            left = 2 * i + 1
            right = left + 1
            largest = i
            if left < size and dist[left] > dist[largest]:
                largest = left
            if right < size and dist[right] > dist[largest]:
                largest = right
            if largest == i:
                break
            dist[i], dist[largest] = dist[largest], dist[i]
            ids[i], ids[largest] = ids[largest], ids[i]
            i = largest


class BatchTopK:
    """Sorted top-k candidate lists for a whole batch of queries.

    The vectorised batched traversal replaces one :class:`BoundedMaxHeap`
    per query with a single ``(n_queries, k)`` pair of arrays kept sorted
    ascending by (squared) distance and padded with ``inf`` distances /
    ``-1`` ids.  Because rows are sorted and padded, the k-th column is
    exactly the pruning bound r'^2 of Algorithm 1: ``inf`` until a query
    holds k candidates, the squared k-th distance afterwards.

    :meth:`update` replicates the sequential push rule of the scalar heap
    (candidates are accepted while the set is not full, then only on a
    strictly smaller distance than the current worst), so the number of
    accepted candidates it reports equals the scalar ``heap_updates`` count.
    """

    def __init__(self, n_queries: int, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if n_queries < 0:
            raise ValueError(f"n_queries must be non-negative, got {n_queries}")
        self.n_queries = n_queries
        self.k = k
        self.dists = np.full((n_queries, k), np.inf, dtype=np.float64)
        self.ids = np.full((n_queries, k), -1, dtype=np.int64)

    def bounds(self) -> np.ndarray:
        """Per-query pruning bound r'^2 (a live view of the k-th column)."""
        return self.dists[:, self.k - 1]

    def update(self, rows: np.ndarray, cand_dists: np.ndarray, cand_ids: np.ndarray) -> np.ndarray:
        """Offer one block of candidates to each selected row.

        Parameters
        ----------
        rows:
            ``(m,)`` unique row indices receiving candidates.
        cand_dists, cand_ids:
            ``(m, c)`` candidate blocks in scan order; invalid slots must be
            padded with ``inf`` distance and id ``-1``.

        Returns
        -------
        np.ndarray
            ``(m,)`` number of candidates accepted into each row, matching
            what sequential strict-< pushes into a :class:`BoundedMaxHeap`
            would have accepted.
        """
        k = self.k
        # Old entries go first so the stable sort resolves distance ties in
        # their favour — a candidate equal to the current k-th distance is
        # rejected, exactly like the scalar heap's strict-< push.
        all_d = np.concatenate([self.dists[rows], cand_dists], axis=1)
        all_i = np.concatenate([self.ids[rows], cand_ids], axis=1)
        order = np.argsort(all_d, axis=1, kind="stable")[:, :k]
        new_d = np.take_along_axis(all_d, order, axis=1)
        new_i = np.take_along_axis(all_i, order, axis=1)
        accepted = np.count_nonzero((order >= k) & np.isfinite(new_d), axis=1)
        self.dists[rows] = new_d
        self.ids[rows] = new_i
        return accepted

    def sorted_results(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return copies of the (squared distances, ids) result arrays."""
        return self.dists.copy(), self.ids.copy()


#: Id sentinel that sorts *after* every valid id when deduplicating (valid
#: ids are non-negative; ``-1`` padding would sort first and break the
#: duplicate scan, so invalid slots are remapped here and back to ``-1``
#: on output).
_INVALID_ID = np.iinfo(np.int64).max


@exactness_path
def merge_topk_rows(
    k: int,
    dists_a: np.ndarray,
    ids_a: np.ndarray,
    dists_b: np.ndarray,
    ids_b: np.ndarray,
    dedup_ids: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise sorted merge of two candidate blocks into per-row top-k.

    Both blocks are ``(n, *)`` parallel (distances, ids) arrays padded with
    id ``-1`` (or non-finite distance) in invalid slots; the result is the
    ``(n, k)`` closest valid candidates per row, distance-ascending, padded
    with ``inf`` / ``-1`` where a row holds fewer than k valid candidates.
    Ties between the two blocks resolve in favour of block ``a`` (stable
    sort with ``a`` first), which is what lets callers fold shard answers
    into an accumulator deterministically.

    With ``dedup_ids=True`` duplicate point ids across the blocks keep the
    smaller distance and equal-distance ties order by ascending id —
    exactly the tie rules of :func:`merge_topk`, which candidate sets from
    overlapping sources (remote ranks) need.  Disjoint sources (fleet
    shards partition the id space; the service's tree and delta buffer
    never share a live id) skip it.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    all_d = np.concatenate(
        [np.asarray(dists_a, dtype=np.float64), np.asarray(dists_b, dtype=np.float64)], axis=1
    )
    all_i = np.concatenate(
        [np.asarray(ids_a, dtype=np.int64), np.asarray(ids_b, dtype=np.int64)], axis=1
    )
    if not dedup_ids:
        all_d = np.where(all_i >= 0, all_d, np.inf)
        order = np.argsort(all_d, axis=1, kind="stable")[:, :k]
        out_d = np.take_along_axis(all_d, order, axis=1)
        out_i = np.take_along_axis(all_i, order, axis=1)
        return out_d, np.where(np.isfinite(out_d), out_i, -1)
    invalid = (all_i < 0) | ~np.isfinite(all_d)
    all_d = np.where(invalid, np.inf, all_d)
    all_i = np.where(invalid, _INVALID_ID, all_i)
    # Composed stable sorts reproduce lexsort((dists, ids)) row-wise: sort
    # by distance, then stably by id — within each id, distances stay
    # ascending, so keeping the first occurrence keeps the smallest.
    by_dist = np.argsort(all_d, axis=1, kind="stable")
    all_d = np.take_along_axis(all_d, by_dist, axis=1)
    all_i = np.take_along_axis(all_i, by_dist, axis=1)
    by_id = np.argsort(all_i, axis=1, kind="stable")
    all_d = np.take_along_axis(all_d, by_id, axis=1)
    all_i = np.take_along_axis(all_i, by_id, axis=1)
    dup = np.zeros_like(all_i, dtype=bool)
    dup[:, 1:] = (all_i[:, 1:] == all_i[:, :-1]) & (all_i[:, 1:] != _INVALID_ID)
    all_d = np.where(dup, np.inf, all_d)
    all_i = np.where(dup | (all_i == _INVALID_ID), _INVALID_ID, all_i)
    # Final distance sort: rows are currently id-ascending, so the stable
    # sort breaks equal-distance ties by ascending id, like merge_topk.
    top = np.argsort(all_d, axis=1, kind="stable")[:, :k]
    out_d = np.take_along_axis(all_d, top, axis=1)
    out_i = np.take_along_axis(all_i, top, axis=1)
    return out_d, np.where(np.isfinite(out_d), out_i, -1)


@exactness_path
def merge_topk(
    k: int,
    dists_a: np.ndarray,
    ids_a: np.ndarray,
    dists_b: np.ndarray,
    ids_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two candidate lists and keep the k closest (step 5 of querying).

    Duplicate point ids are removed keeping the smaller distance, which makes
    the merge idempotent when a remote rank happens to return a point the
    owner already found (possible for points exactly on a domain boundary).
    Padding entries (id ``-1`` or non-finite distance), as produced by
    :func:`repro.kdtree.query.batch_knn` for queries with fewer than k
    in-range neighbours, are dropped rather than merged — the result is
    unpadded and may hold fewer than k entries.
    """
    d, i = merge_topk_rows(
        k,
        np.asarray(dists_a, dtype=np.float64).reshape(1, -1),
        np.asarray(ids_a, dtype=np.int64).reshape(1, -1),
        np.asarray(dists_b, dtype=np.float64).reshape(1, -1),
        np.asarray(ids_b, dtype=np.int64).reshape(1, -1),
        dedup_ids=True,
    )
    valid = i[0] >= 0
    return d[0][valid], i[0][valid]
