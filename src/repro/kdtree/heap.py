"""Top-k candidate tracking for the k nearest neighbours found so far.

Algorithm 1 of the paper maintains a heap ``H`` of at most ``k`` candidates
ordered by distance to the query; its maximum is the pruning radius ``r'``.
Two top-k structures with one tie rule (among candidates tied at a
distance, the one offered first is kept) and two merges live here:

* :func:`offer_sorted` — one query's top-k as two parallel sorted lists
  with a stable insert, used by the single-query search;
* :class:`BatchTopK` — one ``(n_queries, k)`` pair of sorted arrays holding
  the candidate sets of a whole query batch at once, used by the lockstep
  batched traversal (the k-th column *is* the per-query pruning bound);
* :func:`merge_topk_rows` — the shared vectorised sorted-merge primitive:
  fold two ``(n, *)`` candidate blocks into per-row top-k, optionally
  deduplicating point ids.  The fleet router, the service's delta fusion
  and the rank-level :func:`merge_topk` are all built on it;
* :func:`merge_topk` — the 1-D rank-merge wrapper (duplicate ids removed,
  padding stripped) used when candidate sets come back from remote ranks.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path


def offer_sorted(
    top_d: List[float], top_i: List[int], k: int, cand_d: List[float], cand_i: List[int]
) -> int:
    """Offer ascending candidates to one query's sorted top-k, in place.

    ``top_d`` / ``top_i`` are parallel lists of at most ``k`` (distance, id)
    entries, ascending by distance; the last entry of a full list is the
    pruning bound r' of Algorithm 1.  A candidate is inserted *after* every
    held entry at its distance and the last entry is dropped to make room,
    so among candidates tied at a distance the one offered first is kept —
    the same outcome as :meth:`BatchTopK.update`'s stable merge.  Returns
    the number of candidates accepted; none accepted is ever dropped again
    by a later candidate of the same call, because they arrive ascending.
    """
    accepted = 0
    for d, point_id in zip(cand_d, cand_i):
        if len(top_d) == k:
            if d >= top_d[-1]:
                break
            top_d.pop()
            top_i.pop()
        pos = bisect_right(top_d, d)
        top_d.insert(pos, d)
        top_i.insert(pos, point_id)
        accepted += 1
    return accepted


class BatchTopK:
    """Sorted top-k candidate lists for a whole batch of queries.

    The lockstep batched traversal replaces one sorted list pair per
    query with a single ``(n_queries, k)`` pair of arrays kept sorted
    ascending by (squared) distance and padded with ``inf`` distances /
    ``-1`` ids.  Because rows are sorted and padded, the k-th column is
    exactly the pruning bound r'^2 of Algorithm 1: ``inf`` until a query
    holds k candidates, the squared k-th distance afterwards.

    :meth:`update` replicates :func:`offer_sorted` (candidates are accepted
    while the set is not full, then only on a strictly smaller distance
    than the current worst), so contents, tie order and the number of
    accepted candidates it reports equal the single-query search's.
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
            padded with ``inf`` distance and id ``-1``.  The lockstep
            engine offers only candidates strictly below each row's bound,
            and only rows that hold one; a candidate at or above it would
            be rejected here anyway, so the result is the same.

        Returns
        -------
        np.ndarray
            ``(m,)`` number of candidates accepted into each row, matching
            what :func:`offer_sorted` accepts for the same candidates.
        """
        k = self.k
        # Old entries go first so the stable sort resolves distance ties in
        # their favour — a candidate equal to the current k-th distance is
        # rejected, exactly like the single-query search's strict-< offer.
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
