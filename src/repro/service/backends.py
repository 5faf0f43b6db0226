"""The index backend the online service sits on top of.

:class:`~repro.service.service.KNNService` only needs four things from an
index: answer a query batch, enumerate its points, rebuild itself, and
round-trip through a snapshot.  Rebuilding has one form, ``fold``: a new
backend without the tombstoned ids and with the buffered points (the old
one keeps serving whoever still holds it).

:class:`LocalTreeBackend` is one in-process kd-tree queried through the
vectorised :func:`~repro.kdtree.query.batch_knn`, the backend of every
service and of every fleet shard.  It folds by re-packing the tree under
its existing split planes (:func:`~repro.kdtree.repack.repack_kdtree`).
A kd-tree snapshot (:meth:`LocalTreeBackend.save`) warm-starts a service
without a rebuild.  The distributed PANDA index,
:class:`~repro.core.panda.PandaKNN`, stays the batch front door.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

from repro.kdtree.build import build_kdtree
from repro.kdtree.query import batch_knn
from repro.kdtree.repack import repack_kdtree
from repro.kdtree.serialize import load_kdtree, save_kdtree
from repro.kdtree.tree import KDTree, KDTreeConfig


class LocalTreeBackend:
    """Single kd-tree backend (vectorised batched traversal)."""

    def __init__(self, tree: KDTree) -> None:
        self.tree = tree

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        ids: np.ndarray | None = None,
        config: KDTreeConfig | None = None,
    ) -> "LocalTreeBackend":
        """Build a kd-tree over ``points`` and wrap it."""
        return cls(build_kdtree(points, ids=ids, config=config or KDTreeConfig()))

    @property
    def dims(self) -> int:
        """Point dimensionality (0 for an empty tree)."""
        return self.tree.dims if self.tree.n_points else int(self.tree.points.shape[1])

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self.tree.n_points

    def kneighbors(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` of the k nearest tree points per query row."""
        d, i, _ = batch_knn(self.tree, queries, k)
        return d, i

    def all_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every indexed ``(point, id)`` pair (used by rebuilds)."""
        return self.tree.points, self.tree.ids

    def fold(self, dead_ids: np.ndarray, points: np.ndarray, ids: np.ndarray) -> "LocalTreeBackend":
        """Fresh backend over this tree minus ``dead_ids`` plus ``points``,
        re-packed under the tree's split planes."""
        keep = np.isin(self.tree.ids, dead_ids, invert=True)
        return LocalTreeBackend(repack_kdtree(self.tree, keep, points, ids))

    def fold_edits(self) -> Tuple[int, int]:
        """``(grafted_leaves, collapsed_nodes)`` of the fold that made this
        backend (zeros for a fresh build)."""
        return self.tree.stats.grafted_leaves, self.tree.stats.collapsed_nodes

    def save(self, path) -> Path:
        """Snapshot the tree; see :meth:`repro.kdtree.tree.KDTree.save`."""
        return save_kdtree(self.tree, path)

    @classmethod
    def load(cls, path) -> "LocalTreeBackend":
        """Warm-start from a kd-tree snapshot."""
        return cls(load_kdtree(path))
