"""High-level PANDA façade: fit a distributed index, query it, model time.

:class:`PandaKNN` wires the whole pipeline together: distribute points to a
simulated cluster, build the global kd-tree (with redistribution), build the
per-rank local trees, then answer distributed KNN queries.  It also exposes
the modeled construction/query times and the Fig. 5 breakdowns.

:class:`ReplicatedKNN` implements the *shared kd-tree* mode of Fig. 8(b):
the full tree is replicated on every rank and queries are simply divided
among ranks — no global tree, no remote-query traffic, but every rank must
hold the entire dataset.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.cluster.cost_model import CostModel, TimeBreakdown
from repro.cluster.executor import RankExecutor, RankTask
from repro.cluster.machine import MachineSpec
from repro.cluster.simulator import Cluster
from repro.core.breakdown import (
    CONSTRUCTION_PHASES,
    construction_breakdown,
    default_cost_model,
    query_breakdown,
)
from repro.core.config import PandaConfig
from repro.core.global_tree import GlobalTree
from repro.core.local_phase import LOCAL_TREE_KEY, build_local_trees, local_tree_of
from repro.core.query_engine import (
    QUERY_PHASES,
    DistributedQueryEngine,
    QueryReport,
    _local_knn_step,
)
from repro.core.redistribution import build_global_tree
from repro.kdtree.build import build_kdtree
from repro.kdtree.query import QueryStats
from repro.kdtree.tree import KDTree


class PandaKNN:
    """Distributed kd-tree k-nearest-neighbour index (the paper's PANDA).

    Parameters
    ----------
    n_ranks:
        Number of simulated nodes.
    machine:
        Hardware description used by the cost model (defaults to an Edison
        node).
    threads_per_rank:
        Modeled threads per node (defaults to the machine's core count).
    config:
        Algorithmic parameters (:class:`PandaConfig`).
    executor:
        Rank-step dispatch backend (``None``/``"inline"``, ``"thread"``,
        ``"process"`` or a :class:`~repro.cluster.executor.RankExecutor`).
        Results, query statistics and communicator byte accounting are
        identical across executors; call :meth:`close` (or use the index as
        a context manager) to release pooled workers.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import PandaKNN
    >>> points = np.random.default_rng(0).normal(size=(2000, 3))
    >>> index = PandaKNN(n_ranks=4).fit(points)
    >>> report = index.query(points[:10], k=5)
    >>> report.distances.shape
    (10, 5)
    """

    def __init__(
        self,
        n_ranks: int = 4,
        machine: MachineSpec | None = None,
        threads_per_rank: int | None = None,
        config: PandaConfig | None = None,
        executor: "RankExecutor | str | None" = None,
    ) -> None:
        self.config = config or PandaConfig()
        self.cluster = Cluster(
            n_ranks=n_ranks,
            machine=machine,
            threads_per_rank=threads_per_rank,
            executor=executor,
        )
        self.global_tree: GlobalTree | None = None
        self._engine: DistributedQueryEngine | None = None
        self._fitted = False

    def close(self) -> None:
        """Release executor workers and shared memory (idempotent)."""
        self.cluster.close()

    def __enter__(self) -> "PandaKNN":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def fit(self, points: np.ndarray, ids: np.ndarray | None = None) -> "PandaKNN":
        """Build the distributed index over ``points``.

        Points are first block-distributed (as if read from a partitioned
        file), the global kd-tree is constructed with full redistribution,
        then every rank builds its local kd-tree.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            raise ValueError("cannot fit an index over an empty point set")
        if not np.isfinite(points).all():
            raise ValueError("points must have finite coordinates (found nan or inf)")
        self.cluster.distribute_block(points, ids)
        self.global_tree = build_global_tree(self.cluster, self.config)
        build_local_trees(self.cluster, self.config)
        self._engine = DistributedQueryEngine(self.cluster, self.global_tree, self.config)
        self._fitted = True
        return self

    @classmethod
    def from_cluster(cls, cluster: Cluster, config: PandaConfig | None = None) -> "PandaKNN":
        """Build an index over points already distributed on ``cluster``."""
        index = cls.__new__(cls)
        index.config = config or PandaConfig()
        index.cluster = cluster
        index.global_tree = build_global_tree(cluster, index.config)
        build_local_trees(cluster, index.config)
        index._engine = DistributedQueryEngine(cluster, index.global_tree, index.config)
        index._fitted = True
        return index

    # ------------------------------------------------------------------
    # Snapshot persistence
    # ------------------------------------------------------------------
    def snapshot(self, path) -> "PandaKNN":
        """Write the fitted index to directory ``path`` (warm-start snapshot).

        Persists the config, cluster shape, global tree and every rank's
        local tree, one ``.npz`` per tree, so :meth:`restore` can rebuild
        the index without re-running construction; restored indices answer
        queries byte-identically.  Returns ``self`` for chaining.
        """
        from repro.core.snapshot import write_snapshot

        self._require_fitted()
        write_snapshot(self, path)
        return self

    @classmethod
    def restore(
        cls,
        path,
        machine: MachineSpec | None = None,
        executor: "RankExecutor | str | None" = None,
    ) -> "PandaKNN":
        """Load an index previously written by :meth:`snapshot`.

        The restored index starts with fresh metrics: query counters
        accumulate normally but construction counters are zero (a warm
        start performs no construction).  ``machine`` overrides the
        persisted machine model; ``executor`` picks how the restored
        cluster runs its ranks, as for :class:`~repro.cluster.simulator.Cluster`.
        """
        from repro.core.snapshot import read_snapshot

        return read_snapshot(path, machine=machine, executor=executor)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, queries: np.ndarray, k: int | None = None) -> QueryReport:
        """Run the distributed query protocol; returns the full report."""
        self._require_fitted()
        assert self._engine is not None
        return self._engine.query(queries, k=k)

    def kneighbors(self, queries: np.ndarray, k: int | None = None) -> Tuple[np.ndarray, np.ndarray]:
        """Convenience wrapper returning only ``(distances, ids)``."""
        report = self.query(queries, k=k)
        return report.distances, report.ids

    # ------------------------------------------------------------------
    # Introspection & performance modelling
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of simulated nodes."""
        return self.cluster.n_ranks

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return self._fitted

    def local_trees(self) -> list[KDTree]:
        """The per-rank local kd-trees (rank order)."""
        self._require_fitted()
        return [local_tree_of(self.cluster, rank.rank) for rank in self.cluster.ranks]

    def load_imbalance(self) -> float:
        """Max/mean points per rank after redistribution."""
        return self.cluster.load_imbalance()

    def cost_model(self, machine: MachineSpec | None = None) -> CostModel:
        """Cost model configured for this cluster (query comm overlapped)."""
        return default_cost_model(self.cluster, machine)

    def construction_time(self, cost_model: CostModel | None = None) -> TimeBreakdown:
        """Modeled construction time broken down by phase."""
        cost_model = cost_model or self.cost_model()
        return cost_model.evaluate(self.cluster.metrics, phases=list(CONSTRUCTION_PHASES))

    def query_time(self, cost_model: CostModel | None = None) -> TimeBreakdown:
        """Modeled query time broken down by phase (cumulative over queries)."""
        cost_model = cost_model or self.cost_model()
        return cost_model.evaluate(self.cluster.metrics, phases=list(QUERY_PHASES))

    def construction_breakdown(self, as_fractions: bool = True) -> Dict[str, float]:
        """Fig. 5(b)-style construction breakdown."""
        return construction_breakdown(self.cluster, self.cost_model(), as_fractions)

    def query_breakdown(self, as_fractions: bool = True) -> Dict[str, float]:
        """Fig. 5(c)-style query breakdown."""
        return query_breakdown(self.cluster, self.cost_model(), as_fractions)

    def reset_query_metrics(self) -> None:
        """Clear query-phase counters (construction counters are preserved)."""
        for rank_counters in self.cluster.metrics.all_ranks():
            for phase in QUERY_PHASES:
                rank_counters.phases.pop(phase, None)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("index is not fitted; call fit(points) first")


class ReplicatedKNN:
    """Shared (replicated) kd-tree KNN across ranks (Fig. 8(b) mode).

    Every rank holds a copy of the same kd-tree; incoming queries are simply
    divided among ranks.  This is how the multi-GPU buffered kd-tree
    baseline of Gieseke et al. operates and how the paper runs its
    psf_mod_mag / all_mag KNL scaling experiment: it avoids all inter-rank
    query traffic but requires the entire dataset to fit on one node.
    """

    def __init__(
        self,
        n_ranks: int = 1,
        machine: MachineSpec | None = None,
        threads_per_rank: int | None = None,
        config: PandaConfig | None = None,
        executor: "RankExecutor | str | None" = None,
    ) -> None:
        self.config = config or PandaConfig()
        self.cluster = Cluster(
            n_ranks=n_ranks,
            machine=machine,
            threads_per_rank=threads_per_rank,
            executor=executor,
        )
        self.tree: KDTree | None = None

    def close(self) -> None:
        """Release executor workers and shared memory (idempotent)."""
        self.cluster.close()

    def __enter__(self) -> "ReplicatedKNN":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def fit(self, points: np.ndarray, ids: np.ndarray | None = None) -> "ReplicatedKNN":
        """Build one kd-tree and broadcast it to every rank."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        with self.cluster.metrics.phase("replicate_build"):
            tree = build_kdtree(
                points, ids=ids, config=self.config.local, threads=self.cluster.threads_per_rank
            )
            tree.stats.merge_into(
                {name: self.cluster.metrics.rank(0).phase(name) for name in tree.stats.phase_counters}
            )
        with self.cluster.metrics.phase("replicate_broadcast"):
            self.cluster.comm.bcast((tree.points, tree.ids), root=0)
        for rank in self.cluster.ranks:
            rank.store[LOCAL_TREE_KEY] = tree
        self.tree = tree
        return self

    def query(self, queries: np.ndarray, k: int | None = None) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """Answer queries by splitting them evenly across the ranks."""
        if self.tree is None:
            raise RuntimeError("index is not fitted; call fit(points) first")
        k = self.config.k if k is None else k
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = queries.shape[0]
        out_d = np.full((n, k), np.inf)
        out_i = np.full((n, k), -1, dtype=np.int64)
        total_stats = QueryStats()
        boundaries = np.linspace(0, n, self.cluster.n_ranks + 1).astype(np.int64)
        with self.cluster.metrics.phase("query_local_knn"):
            # Same step as the distributed engine's owner-side local KNN:
            # an unbounded batched search of one tree.
            tasks = [
                RankTask(
                    rank.rank,
                    _local_knn_step,
                    (queries[boundaries[rank.rank] : boundaries[rank.rank + 1]], k),
                    {"tree": self.tree},
                )
                if boundaries[rank.rank + 1] > boundaries[rank.rank]
                else None
                for rank in self.cluster.ranks
            ]
            for rank, out in zip(self.cluster.ranks, self.cluster.run_ranks(tasks)):
                if out is None:
                    continue
                lo, hi = int(boundaries[rank.rank]), int(boundaries[rank.rank + 1])
                d, i, stats = out
                out_d[lo:hi] = d
                out_i[lo:hi] = i
                stats.charge(self.cluster.metrics.for_phase(rank.rank), self.tree.dims)
                total_stats.merge(stats)
        return out_d, out_i, total_stats

    def query_time(self, cost_model: CostModel | None = None) -> TimeBreakdown:
        """Modeled query time (single ``query_local_knn`` phase)."""
        cost_model = cost_model or default_cost_model(self.cluster)
        return cost_model.evaluate(self.cluster.metrics, phases=["query_local_knn"])
