"""Per-rank local kd-tree construction (paper steps ii-iv).

After redistribution every rank owns the points of its region; this module
builds each rank's local kd-tree and charges the work of the three local
phases (data-parallel levels, thread-parallel subtrees, SIMD packing) to the
cluster metrics so the Fig. 5(b) breakdown includes them.  The per-rank
builds are dispatched through the cluster's
:class:`~repro.cluster.executor.RankExecutor`, so they run sequentially,
across threads or across worker processes without changing results.
"""

from __future__ import annotations

from typing import List

from repro.cluster.executor import RankState, RankTask
from repro.cluster.simulator import Cluster
from repro.core.config import PandaConfig
from repro.kdtree.build import (
    PHASE_DATA_PARALLEL,
    PHASE_SIMD_PACKING,
    PHASE_THREAD_PARALLEL,
    build_kdtree,
)
from repro.kdtree.tree import KDTree, KDTreeConfig

#: Key under which each rank stores its local tree.
LOCAL_TREE_KEY = "local_tree"

#: Local construction phases in Fig. 5(b) order.
LOCAL_PHASES = (PHASE_DATA_PARALLEL, PHASE_THREAD_PARALLEL, PHASE_SIMD_PACKING)


def _build_tree_step(state: RankState, config: KDTreeConfig, threads: int) -> KDTree:
    """Executor step: build one rank's local tree from its points."""
    return build_kdtree(state.points, ids=state.ids, config=config, threads=threads)


def build_local_trees(cluster: Cluster, config: PandaConfig | None = None) -> List[KDTree]:
    """Build a local kd-tree on every rank of ``cluster``.

    The trees are stored in ``rank.store["local_tree"]`` and returned in
    rank order.  Build counters are charged to the per-rank metrics under
    the phases ``local_data_parallel``, ``local_thread_parallel`` and
    ``local_simd_packing``.
    """
    config = config or PandaConfig()
    # Register the phases once, in paper order, before any rank charges them.
    for phase_name in LOCAL_PHASES:
        with cluster.metrics.phase(phase_name):
            pass
    tasks = [
        RankTask(
            rank=rank.rank,
            step=_build_tree_step,
            args=(config.local, cluster.threads_per_rank),
            state={"points": rank.points, "ids": rank.ids},
        )
        for rank in cluster.ranks
    ]
    trees: List[KDTree] = cluster.run_ranks(tasks)
    for rank, tree in zip(cluster.ranks, trees):
        rank.store[LOCAL_TREE_KEY] = tree
        # The builder registers all three phases unconditionally (even for
        # an empty rank), so the merge never silently skips one.
        for phase_name in LOCAL_PHASES:
            cluster.metrics.rank(rank.rank).phase(phase_name).merge(
                tree.stats.phase_counters[phase_name]
            )
    return trees


def local_tree_of(cluster: Cluster, rank: int) -> KDTree:
    """Return the local tree previously built (or restored) on ``rank``."""
    store = cluster.ranks[rank].store
    if LOCAL_TREE_KEY not in store:
        raise KeyError(f"rank {rank} has no local kd-tree; call build_local_trees first")
    return store[LOCAL_TREE_KEY]
