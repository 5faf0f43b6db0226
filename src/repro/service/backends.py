"""Index backends the online service can sit on top of.

:class:`~repro.service.service.KNNService` only needs four things from an
index: answer a query batch, enumerate its points, rebuild itself, and
round-trip through a snapshot.  Rebuilding has one form, ``fold``: a new
backend without the tombstoned ids and with the buffered points (the old
one keeps serving whoever still holds it).  Two backends provide it:

* :class:`LocalTreeBackend` — one in-process kd-tree queried through the
  vectorised :func:`~repro.kdtree.query.batch_knn`; the single-node serving
  configuration.  It folds by re-packing the tree under its existing split
  planes (:func:`~repro.kdtree.repack.repack_kdtree`).
* :class:`PandaBackend` — a fitted :class:`~repro.core.panda.PandaKNN`
  queried through the five-step distributed protocol; the scale-out
  configuration (micro-batches become the protocol's query batches).  It
  folds by gathering its live set and refitting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

from repro.core.panda import PandaKNN
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

    def close(self) -> None:
        """Nothing pooled to release (protocol uniformity with PandaBackend)."""

    def save(self, path) -> Path:
        """Snapshot the tree; see :meth:`repro.kdtree.tree.KDTree.save`."""
        return save_kdtree(self.tree, path)

    @classmethod
    def load(cls, path) -> "LocalTreeBackend":
        """Warm-start from a kd-tree snapshot (either snapshot backend)."""
        return cls(load_kdtree(path))


class PandaBackend:
    """Distributed PANDA backend (simulated multi-rank index)."""

    def __init__(self, index: PandaKNN) -> None:
        if not index.is_fitted:
            raise ValueError("PandaBackend requires a fitted PandaKNN index")
        self.index = index

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        ids: np.ndarray | None = None,
        n_ranks: int = 4,
        **panda_kwargs,
    ) -> "PandaBackend":
        """Build a distributed index over ``points`` and wrap it.

        ``panda_kwargs`` forward to :class:`~repro.core.panda.PandaKNN`;
        notably ``executor="thread"``/``"process"`` serves micro-batches
        through a real parallel rank executor (answers are byte-identical
        to the inline default).
        """
        return cls(PandaKNN(n_ranks=n_ranks, **panda_kwargs).fit(points, ids))

    @property
    def dims(self) -> int:
        """Point dimensionality of the indexed data."""
        return int(self.index.global_tree.dims)

    @property
    def n_points(self) -> int:
        """Total points across all ranks."""
        return self.index.cluster.total_points()

    def kneighbors(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` via the distributed query protocol."""
        return self.index.kneighbors(queries, k=k)

    def all_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """Gathered ``(points, ids)`` across ranks (used by rebuilds).

        Materialises every lazily restored rank first — a rebuild must fold
        the *whole* index, not just the ranks queries happened to touch.
        """
        self.index.local_trees()
        return self.index.cluster.gather_points(), self.index.cluster.gather_ids()

    def fold(self, dead_ids: np.ndarray, points: np.ndarray, ids: np.ndarray) -> "PandaBackend":
        """Fresh distributed index over this one's points minus ``dead_ids``
        plus ``points``, same cluster shape (gathered and refit: the global
        tree is rebuilt).

        The rank executor (and its pooled workers) carries over, so a
        rebuild under a process executor does not respawn the pool.
        """
        tree_points, tree_ids = self.all_points()
        keep = np.isin(tree_ids, dead_ids, invert=True)
        fresh = PandaKNN(
            n_ranks=self.index.n_ranks,
            machine=self.index.cluster.machine,
            threads_per_rank=self.index.cluster.threads_per_rank,
            config=self.index.config,
            executor=self.index.cluster.executor,
        )
        # Shutdown responsibility follows the live index down the fold
        # chain; the retired cluster's close() leaves the shared pool alone.
        self.index.cluster.transfer_executor_ownership(fresh.cluster)
        return PandaBackend(
            fresh.fit(
                np.concatenate([tree_points[keep], points]), np.concatenate([tree_ids[keep], ids])
            )
        )

    def fold_edits(self) -> Tuple[int, int]:
        """A refit makes no structural edit: always ``(0, 0)``."""
        return 0, 0

    def comm_totals(self) -> dict:
        """Executor byte/message accounting, aggregated over all ranks.

        The presence of this method is what opts a backend into the
        ``repro_executor_*`` metric families (see
        :mod:`repro.obs.collectors`); local-tree backends have no
        communication to report and deliberately omit it.
        """
        totals = self.index.cluster.metrics.grand_total()
        return {
            "bytes_sent": int(totals.bytes_sent),
            "bytes_received": int(totals.bytes_received),
            "messages_sent": int(totals.messages_sent),
            "messages_received": int(totals.messages_received),
        }

    def close(self) -> None:
        """Release the index's executor workers/shared memory (if owned)."""
        self.index.close()

    def save(self, path, layout: str = "files") -> Path:
        """Snapshot the index; see :meth:`repro.core.panda.PandaKNN.snapshot`."""
        self.index.snapshot(path, layout=layout)
        return Path(path)

    @classmethod
    def load(cls, path, lazy: bool = False, executor=None) -> "PandaBackend":
        """Warm-start from a :meth:`repro.core.panda.PandaKNN.snapshot` directory.

        ``lazy=True`` defers per-rank tree materialisation to first touch.
        Note that :attr:`n_points` under-reports until ranks are touched,
        and that wrapping the backend in a :class:`KNNService` materialises
        everything up front anyway (the service indexes the full id set);
        laziness pays off for direct query use.
        """
        return cls(PandaKNN.restore(path, lazy=lazy, executor=executor))
