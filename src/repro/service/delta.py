"""Streaming-update state: brute-force delta buffer plus tombstones.

The index served by :class:`~repro.service.service.KNNService` is immutable
(kd-trees are built once), so streaming updates are absorbed the classic
LSM way:

* **inserts** land in a small in-memory *delta buffer* that is scanned by
  brute force once per query batch (:meth:`DeltaBuffer.query`) and fused
  into tree answers;
* **deletes** of points that live in the tree become *tombstones*.  A read
  asks the tree for ``k`` neighbours and marks the dead ones
  (:meth:`DeltaBuffer.dead_mask`); only a row whose answer holds a dead id
  goes back to the tree for a wider fetch — a fetch of width ``w`` holding
  ``c`` dead ids holds the ``w - c`` nearest live tree points in order, so
  the first ``k`` live ones are exact — and no fetch is ever wider than
  ``k + len(tombstones)``;
* a **rebuild** folds both into a fresh tree (see
  :class:`~repro.service.service.RebuildPolicy`).

Both structures are kept small by the rebuild policy, so the brute-force
scan and the worst-case re-fetch stay cheap.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path
from repro.cluster.simulator import integral_ids, reject_negative_ids


def sorted_member(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Boolean mask, shaped like ``ids``: which of them occur in the
    ascending array ``sorted_ids`` (one ``np.searchsorted``, no hashing)."""
    if sorted_ids.size == 0:
        return np.zeros(ids.shape, dtype=bool)
    pos = np.searchsorted(sorted_ids, ids)
    pos[pos == sorted_ids.size] = 0
    return sorted_ids[pos] == ids


def checked_ids(ids) -> np.ndarray:
    """``ids`` as a 1-D int64 array, or ``ValueError`` when they are not
    1-D, not integral or not unique.

    Both front doors check ids here before their clock or any state moves,
    so ``1.9`` is never truncated into id 1.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
    ids = integral_ids(ids)
    if np.unique(ids).size != ids.size:
        raise ValueError("duplicate ids within one batch")
    return ids


class DeltaBuffer:
    """Buffered inserts (brute-force searched) and tombstoned tree ids."""

    def __init__(self, dims: int) -> None:
        if dims <= 0:
            raise ValueError(f"dims must be positive, got {dims}")
        self.dims = dims
        self._points: List[np.ndarray] = []
        self._ids: List[np.ndarray] = []
        self._id_set: Set[int] = set()
        self._tombstones: Set[int] = set()
        # Derived arrays, rebuilt on first use after a mutation: reads
        # outnumber writes, so no read pays to re-derive them.
        self._dense: Tuple[np.ndarray, np.ndarray] | None = None
        self._columns: np.ndarray | None = None
        self._tomb_sorted: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_inserted(self) -> int:
        """Points currently buffered."""
        return len(self._id_set)

    @property
    def tombstones(self) -> Set[int]:
        """Ids of tree points marked deleted (read-only view; mutate through
        :meth:`add_tombstones`, which keeps the cached array in step)."""
        return self._tombstones

    @property
    def n_tombstones(self) -> int:
        """Tree points currently marked deleted."""
        return len(self._tombstones)

    @property
    def n_updates(self) -> int:
        """Total un-absorbed updates (inserts + tombstones)."""
        return self.n_inserted + self.n_tombstones

    def contains(self, point_id: int) -> bool:
        """True when ``point_id`` is buffered (and not yet deleted)."""
        return point_id in self._id_set

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, ids: np.ndarray) -> None:
        """Buffer new points; ids must not collide with buffered ones."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ids = np.asarray(ids, dtype=np.int64)
        if points.shape[1] != self.dims:
            raise ValueError(f"points have {points.shape[1]} dims, index has {self.dims}")
        if ids.shape[0] != points.shape[0]:
            raise ValueError("ids length must match number of points")
        reject_negative_ids(ids)
        fresh = set(int(i) for i in ids)
        if len(fresh) != ids.shape[0]:
            raise ValueError("duplicate ids within one insert batch")
        collisions = fresh & self._id_set
        if collisions:
            raise ValueError(f"ids already buffered: {sorted(collisions)[:5]}")
        self._points.append(points)
        self._ids.append(ids)
        self._id_set |= fresh
        self._dense = self._columns = None

    def delete_buffered(self, point_id: int) -> None:
        """Remove a buffered point by id (must be buffered)."""
        if point_id not in self._id_set:
            raise KeyError(f"id {point_id} is not buffered")
        self._id_set.discard(point_id)
        # Drop the row eagerly so a later re-insert of the same id never
        # resurrects the stale coordinates.
        pruned_points: List[np.ndarray] = []
        pruned_ids: List[np.ndarray] = []
        for pts, ids in zip(self._points, self._ids):
            keep = ids != point_id
            if not keep.all():
                pts, ids = pts[keep], ids[keep]
            if ids.size:
                pruned_points.append(pts)
                pruned_ids.append(ids)
        self._points = pruned_points
        self._ids = pruned_ids
        self._dense = self._columns = None

    def add_tombstones(self, point_ids: np.ndarray) -> None:
        """Mark tree-resident points as deleted."""
        self._tombstones.update(np.asarray(point_ids, dtype=np.int64).ravel().tolist())
        self._tomb_sorted = None

    def clear(self) -> None:
        """Drop all buffered state (after a rebuild absorbed it)."""
        self._points.clear()
        self._ids.clear()
        self._id_set.clear()
        self._tombstones.clear()
        self._dense = self._columns = self._tomb_sorted = None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def live_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(points, ids)`` of the buffered (non-deleted) inserts."""
        if self._dense is None:
            if self._points:
                self._dense = (np.concatenate(self._points, axis=0), np.concatenate(self._ids))
            else:
                self._dense = (np.empty((0, self.dims)), np.empty(0, dtype=np.int64))
        return self._dense

    def tombstone_array(self) -> np.ndarray:
        """The tombstoned ids as one ascending int64 array (cached)."""
        if self._tomb_sorted is None:
            self._tomb_sorted = np.sort(
                np.fromiter(self._tombstones, dtype=np.int64, count=len(self._tombstones))
            )
        return self._tomb_sorted

    def dead_mask(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` (any shape) are tombstoned."""
        return sorted_member(self.tombstone_array(), ids)

    @exactness_path
    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Brute-force KNN of a query batch over the buffered points.

        One scan per batch over a cached ``(dims, n)`` column copy,
        accumulating per dimension in index order from zeros — the op
        sequence of :func:`repro.kdtree.leafblocks.scan_columns_sq` — and
        selecting like :func:`repro.kdtree.query.brute_force_knn`, so
        distances and tie order are bit-equal to both.  ``(n_queries, k)``
        distances and ids, ``inf`` / ``-1`` padded.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        points, ids = self.live_arrays()
        out_d = np.full((queries.shape[0], k), np.inf)
        out_i = np.full((queries.shape[0], k), -1, dtype=np.int64)
        if ids.size == 0:
            return out_d, out_i
        if self._columns is None:
            self._columns = np.ascontiguousarray(points.T)
        take = min(k, ids.size)
        # Chunk the queries to bound the (chunk, n) distance block.
        chunk = max(1, int(5e6 // (ids.size * self.dims)))
        for lo in range(0, queries.shape[0], chunk):
            block = queries[lo : lo + chunk]
            d2 = np.zeros((block.shape[0], ids.size))
            for d, column in enumerate(self._columns):
                diff = column - block[:, d, None]
                d2 += diff * diff
            rows = np.arange(block.shape[0])[:, None]
            idx = np.argpartition(d2, take - 1, axis=1)[:, :take]
            part = d2[rows, idx]
            order = np.argsort(part, axis=1, kind="stable")
            out_d[lo : lo + chunk, :take] = np.sqrt(part[rows, order])
            out_i[lo : lo + chunk, :take] = ids[idx[rows, order]]
        return out_d, out_i
