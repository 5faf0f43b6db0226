"""The five-step distributed KNN query protocol (paper Section III-B).

For every batch of queries:

1. **Find owner** — the rank holding a query walks the (replicated) global
   kd-tree to find the rank owning the query's region and forwards the
   query there (all-to-all exchange).
2. **Local KNN** — the owner searches its local kd-tree; the distance to
   the k-th local neighbour becomes the pruning radius r'.
3. **Identify remote nodes** — the owner intersects the r' ball with the
   other ranks' domain boxes and forwards (query, r') only to those ranks.
4. **Remote KNN** — contacted ranks run a radius-bounded local search and
   return their candidates to the owner.
5. **Merge** — the owner folds the replies into its local top-k one source
   rank at a time, in ascending rank order, with the sorted row merge
   :func:`~repro.kdtree.heap.merge_topk_rows` (the fleet router's merge),
   then returns the final k neighbours to the rank that originally held
   the query.  Among candidates tied at a distance the owner's pick comes
   first, then the lower rank's; within one rank the local search's own
   order holds.  Redistribution gives each point exactly one rank, so no
   candidate arrives twice and the fold needs no id dedup.  A query's
   answer therefore depends on neither the batch it ran in nor the rank
   it came from.

Queries are processed in batches (``PandaConfig.query_batch_size``) which is
what enables the software pipelining / communication overlap the paper uses;
the cost model treats the query phases' communication as overlappable.
Every step charges its computation and traffic to a dedicated phase so the
Fig. 5(c) breakdown can be reconstructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.executor import RankState, RankTask
from repro.cluster.simulator import Cluster
from repro.core.config import PandaConfig
from repro.core.global_tree import GlobalTree
from repro.core.local_phase import local_tree_of
from repro.kdtree.heap import merge_topk_rows
from repro.kdtree.query import QueryStats, batch_knn, query_rows

#: Phase names charged by the query engine (Fig. 5c categories).
PHASE_FIND_OWNER = "query_find_owner"
PHASE_LOCAL_KNN = "query_local_knn"
PHASE_IDENTIFY_REMOTE = "query_identify_remote"
PHASE_REMOTE_KNN = "query_remote_knn"
PHASE_MERGE = "query_merge"

QUERY_PHASES = (
    PHASE_FIND_OWNER,
    PHASE_LOCAL_KNN,
    PHASE_IDENTIFY_REMOTE,
    PHASE_REMOTE_KNN,
    PHASE_MERGE,
)


def _group(keys: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Positions of each key value ``0..n_groups-1``, ascending within a group.

    One stable argsort instead of a boolean mask per group: group ``g``
    lists the positions ``p`` with ``keys[p] == g`` in their original order.
    """
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.cumsum(np.bincount(keys, minlength=n_groups))[:-1])


def _local_knn_step(
    state: RankState, queries: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Executor step 2: unbounded local KNN at the owner rank."""
    return batch_knn(state.tree, queries, k)


def _remote_knn_step(
    state: RankState, queries: np.ndarray, k: int, radii: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Executor step 4: radius-bounded local KNN for forwarded queries."""
    return batch_knn(state.tree, queries, k, radii=radii)


@dataclass
class QueryReport:
    """Results and statistics of a distributed query run."""

    k: int
    distances: np.ndarray
    ids: np.ndarray
    owners: np.ndarray
    remote_fanout: np.ndarray
    remote_neighbors_used: np.ndarray
    n_batches: int = 1
    local_stats: QueryStats = field(default_factory=QueryStats)
    remote_stats: QueryStats = field(default_factory=QueryStats)

    @property
    def n_queries(self) -> int:
        """Number of queries answered."""
        return int(self.distances.shape[0])

    @property
    def fraction_sent_remote(self) -> float:
        """Fraction of queries forwarded to at least one remote rank."""
        if self.n_queries == 0:
            return 0.0
        return float(np.count_nonzero(self.remote_fanout > 0)) / self.n_queries

    @property
    def mean_remote_fanout(self) -> float:
        """Average number of remote ranks contacted per query."""
        if self.n_queries == 0:
            return 0.0
        return float(self.remote_fanout.mean())

    @property
    def mean_remote_neighbors(self) -> float:
        """Average number of final neighbours supplied by remote ranks."""
        if self.n_queries == 0:
            return 0.0
        return float(self.remote_neighbors_used.mean())

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by reports and tests."""
        return {
            "n_queries": float(self.n_queries),
            "k": float(self.k),
            "fraction_sent_remote": self.fraction_sent_remote,
            "mean_remote_fanout": self.mean_remote_fanout,
            "mean_remote_neighbors": self.mean_remote_neighbors,
            "local_nodes_visited": float(self.local_stats.nodes_visited),
            "remote_nodes_visited": float(self.remote_stats.nodes_visited),
            "local_distance_computations": float(self.local_stats.distance_computations),
            "remote_distance_computations": float(self.remote_stats.distance_computations),
        }


class DistributedQueryEngine:
    """Executes the distributed query protocol over a prepared cluster.

    The cluster must already hold redistributed points and per-rank local
    trees (see :func:`repro.core.redistribution.build_global_tree` and
    :func:`repro.core.local_phase.build_local_trees`).
    """

    def __init__(self, cluster: Cluster, global_tree: GlobalTree, config: PandaConfig | None = None) -> None:
        self.cluster = cluster
        self.global_tree = global_tree
        self.config = config or PandaConfig()
        if global_tree.n_ranks != cluster.n_ranks:
            raise ValueError(
                f"global tree describes {global_tree.n_ranks} ranks but the cluster has {cluster.n_ranks}"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query(
        self,
        queries: np.ndarray,
        k: int | None = None,
        origin_ranks: np.ndarray | None = None,
    ) -> QueryReport:
        """Answer k-nearest-neighbour queries for every row of ``queries``.

        Parameters
        ----------
        queries:
            ``(n, dims)`` query coordinates.
        k:
            Neighbours per query (defaults to ``config.k``).
        origin_ranks:
            Rank initially holding each query (defaults to a block
            distribution over the cluster, mimicking queries being read from
            a partitioned file).

        Returns
        -------
        QueryReport
            Distances/ids in the original query order plus fan-out
            statistics.
        """
        k = self.config.k if k is None else k
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = query_rows(queries)
        n_queries = queries.shape[0]
        n_ranks = self.cluster.n_ranks
        if origin_ranks is None:
            boundaries = np.linspace(0, n_queries, n_ranks + 1).astype(np.int64)
            origin_ranks = np.repeat(np.arange(n_ranks, dtype=np.int64), np.diff(boundaries))
        else:
            origin_ranks = np.asarray(origin_ranks, dtype=np.int64)
            if origin_ranks.shape[0] != n_queries:
                raise ValueError("origin_ranks must have one entry per query")
            if origin_ranks.size and (origin_ranks.min() < 0 or origin_ranks.max() >= n_ranks):
                raise ValueError("origin_ranks contains an invalid rank id")

        out_d = np.full((n_queries, k), np.inf, dtype=np.float64)
        out_i = np.full((n_queries, k), -1, dtype=np.int64)
        owners_all = np.zeros(n_queries, dtype=np.int64)
        fanout_all = np.zeros(n_queries, dtype=np.int64)
        remote_used_all = np.zeros(n_queries, dtype=np.int64)
        local_stats = QueryStats()
        remote_stats = QueryStats()

        batch_size = self.config.query_batch_size
        n_batches = 0
        for lo in range(0, n_queries, batch_size):
            hi = min(lo + batch_size, n_queries)
            n_batches += 1
            self._run_batch(
                queries[lo:hi],
                np.arange(lo, hi, dtype=np.int64),
                origin_ranks[lo:hi],
                k,
                out_d,
                out_i,
                owners_all,
                fanout_all,
                remote_used_all,
                local_stats,
                remote_stats,
            )

        return QueryReport(
            k=k,
            distances=out_d,
            ids=out_i,
            owners=owners_all,
            remote_fanout=fanout_all,
            remote_neighbors_used=remote_used_all,
            n_batches=max(n_batches, 1),
            local_stats=local_stats,
            remote_stats=remote_stats,
        )

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------
    def _run_batch(
        self,
        queries: np.ndarray,
        qids: np.ndarray,
        origin_ranks: np.ndarray,
        k: int,
        out_d: np.ndarray,
        out_i: np.ndarray,
        owners_all: np.ndarray,
        fanout_all: np.ndarray,
        remote_used_all: np.ndarray,
        local_stats: QueryStats,
        remote_stats: QueryStats,
    ) -> None:
        cluster = self.cluster
        comm = cluster.comm
        metrics = cluster.metrics
        n_ranks = cluster.n_ranks
        tree_depth = max(self.global_tree.depth(), 1)

        # ------------------------------------------------------------------
        # Step 1: find owners and route queries to them.
        # ------------------------------------------------------------------
        with metrics.phase(PHASE_FIND_OWNER):
            owners = self.global_tree.owner_of(queries)
            owners_all[qids] = owners
            for r, n_mine in enumerate(np.bincount(origin_ranks, minlength=n_ranks).tolist()):
                counters = metrics.for_phase(r)
                counters.nodes_visited += n_mine * tree_depth
                counters.scalar_ops += n_mine
            send = [[None for _ in range(n_ranks)] for _ in range(n_ranks)]
            routes = _group(origin_ranks * n_ranks + owners, n_ranks * n_ranks)
            for key, sel in enumerate(routes):
                if sel.size:
                    src, dst = divmod(key, n_ranks)
                    send[src][dst] = (queries[sel], qids[sel], np.full(sel.size, src, dtype=np.int64))
            recv = comm.alltoall(send)

        # Assemble the per-owner work lists.
        owner_queries: List[np.ndarray] = []
        owner_qids: List[np.ndarray] = []
        owner_origins: List[np.ndarray] = []
        for dst in range(n_ranks):
            pieces = [item for item in recv[dst] if item is not None]
            if pieces:
                owner_queries.append(np.concatenate([p[0] for p in pieces], axis=0))
                owner_qids.append(np.concatenate([p[1] for p in pieces]))
                owner_origins.append(np.concatenate([p[2] for p in pieces]))
            else:
                owner_queries.append(np.empty((0, queries.shape[1])))
                owner_qids.append(np.empty(0, dtype=np.int64))
                owner_origins.append(np.empty(0, dtype=np.int64))

        # ------------------------------------------------------------------
        # Step 2: local KNN at the owner; r' bounds from the k-th distance.
        # ------------------------------------------------------------------
        local_dists: List[np.ndarray] = []
        local_ids: List[np.ndarray] = []
        radii: List[np.ndarray] = []
        with metrics.phase(PHASE_LOCAL_KNN):
            tasks: List[RankTask | None] = [
                RankTask(r, _local_knn_step, (owner_queries[r], k), {"tree": local_tree_of(cluster, r)})
                if owner_queries[r].shape[0]
                else None
                for r in range(n_ranks)
            ]
            for r, out in enumerate(cluster.run_ranks(tasks)):
                if out is None:
                    local_dists.append(np.empty((0, k)))
                    local_ids.append(np.empty((0, k), dtype=np.int64))
                    radii.append(np.empty(0))
                    continue
                d, i, stats = out
                d_kth = d[:, k - 1]
                local_dists.append(d)
                local_ids.append(i)
                radii.append(np.where(np.isfinite(d_kth), d_kth, np.inf))
                stats.charge(metrics.for_phase(r), local_tree_of(cluster, r).dims)
                local_stats.merge(stats)

        # ------------------------------------------------------------------
        # Step 3: identify remote ranks within r' and forward the queries.
        # ------------------------------------------------------------------
        # forwarded[r][dst]: the rows of owner r's batch sent to rank dst, in
        # the order dst answers them.
        forwarded: List[List[np.ndarray | None]] = [[None] * n_ranks for _ in range(n_ranks)]
        with metrics.phase(PHASE_IDENTIFY_REMOTE):
            send = [[None for _ in range(n_ranks)] for _ in range(n_ranks)]
            for r in range(n_ranks):
                nq = owner_queries[r].shape[0]
                if nq == 0:
                    continue
                rows, dsts = self.global_tree.ranks_within_flat(owner_queries[r], radii[r], np.full(nq, r))
                metrics.for_phase(r).scalar_ops += nq * n_ranks
                fanout_all[owner_qids[r]] = np.bincount(rows, minlength=nq)
                for dst, pos in enumerate(_group(dsts, n_ranks)):
                    if pos.size == 0:
                        continue
                    sel = rows[pos]
                    forwarded[r][dst] = sel
                    send[r][dst] = (
                        owner_queries[r][sel],
                        owner_qids[r][sel],
                        radii[r][sel],
                        np.full(sel.size, r, dtype=np.int64),
                    )
            recv = comm.alltoall(send)

        # ------------------------------------------------------------------
        # Step 4: bounded local KNN for received remote queries; send back.
        # ------------------------------------------------------------------
        with metrics.phase(PHASE_REMOTE_KNN):
            reply = [[None for _ in range(n_ranks)] for _ in range(n_ranks)]
            tasks = [None] * n_ranks
            for r in range(n_ranks):
                pieces = [item for item in recv[r] if item is not None]
                if pieces:
                    rq = np.concatenate([p[0] for p in pieces], axis=0)
                    rrad = np.concatenate([p[2] for p in pieces])
                    tasks[r] = RankTask(r, _remote_knn_step, (rq, k, rrad), {"tree": local_tree_of(cluster, r)})
            for r, out in enumerate(cluster.run_ranks(tasks)):
                if out is None:
                    continue
                d, i, stats = out
                stats.charge(metrics.for_phase(r), local_tree_of(cluster, r).dims)
                remote_stats.merge(stats)
                # Answer every owner with its own slice, in the order asked.
                lo = 0
                for owner, piece in enumerate(recv[r]):
                    if piece is None:
                        continue
                    hi = lo + piece[1].shape[0]
                    reply[r][owner] = (piece[1], d[lo:hi], i[lo:hi])
                    lo = hi
            replies = comm.alltoall(reply)

        # ------------------------------------------------------------------
        # Step 5: fold remote candidates into the owner's top-k in ascending
        # source-rank order; return the answers to the origin ranks.
        # ------------------------------------------------------------------
        merge_ops = int(k * np.log2(max(k, 2)))
        with metrics.phase(PHASE_MERGE):
            result_send = [[None for _ in range(n_ranks)] for _ in range(n_ranks)]
            for r in range(n_ranks):
                nq = owner_queries[r].shape[0]
                if nq == 0:
                    continue
                counters = metrics.for_phase(r)
                merged_d, merged_i = local_dists[r], local_ids[r]
                fanout = fanout_all[owner_qids[r]]
                touched = np.flatnonzero(fanout)
                if touched.size:
                    counters.scalar_ops += int(fanout.sum()) * merge_ops
                    own_i = merged_i[touched]
                    for src, piece in enumerate(replies[r]):
                        if piece is None:
                            continue
                        rows = forwarded[r][src]
                        merged_d[rows], merged_i[rows] = merge_topk_rows(
                            k, merged_d[rows], merged_i[rows], piece[1], piece[2]
                        )
                    # Count the final neighbours that did not come from the owner.
                    final_i = merged_i[touched]
                    from_owner = (final_i[:, :, None] == own_i[:, None, :]).any(axis=2)
                    remote_used_all[owner_qids[r][touched]] = np.count_nonzero(
                        (final_i >= 0) & ~from_owner, axis=1
                    )
                # Return results to the rank that originally held the query.
                for origin, sel in enumerate(_group(owner_origins[r], n_ranks)):
                    if sel.size:
                        result_send[r][origin] = (owner_qids[r][sel], merged_d[sel], merged_i[sel])
            results = comm.alltoall(result_send)
            for origin in range(n_ranks):
                for piece in results[origin]:
                    if piece is None:
                        continue
                    rqid, rd, ri = piece
                    out_d[rqid] = rd
                    out_i[rqid] = ri
