"""k-nearest-neighbour search over a local kd-tree (paper Algorithm 1).

Two engines implement the same search semantics:

* :func:`knn_search` — the scalar single-query traversal.  A stack of
  ``(node, lower_bound, offsets)`` entries drives a depth-first descent
  (closer child first); the bound is the exact squared distance from the
  query to the node's region, maintained incrementally by *replacing* the
  crossed dimension's offset (ANN-style incremental distance computation —
  summing plane distances would double-count repeated split dimensions and
  prune subtrees that hold true neighbours).  A bounded max-heap holds the
  best k candidates and its maximum is the pruning radius r', progressively
  shrunk as closer candidates are found.  Leaf buckets are scanned with one
  vectorised distance kernel.
* :func:`batch_knn` — the vectorised batched traversal.  All queries of a
  batch advance in lockstep: per-query DFS stacks live in one
  ``(n_queries, stack_cap)`` array pair, the per-query pruning bounds are
  one vector (the k-th column of a :class:`~repro.kdtree.heap.BatchTopK`),
  and every iteration pops one node per active query.  Queries sitting at
  leaf buckets are scanned together with a single padded gather over the
  structure-of-arrays leaf columns (:mod:`repro.kdtree.leafblocks`); their
  candidate sets are folded into the batch top-k with one sorted merge.
  Because every query performs exactly the node visits of its own scalar
  DFS and both engines share one per-dimension distance kernel, distances
  *and* ``QueryStats`` counters match :func:`knn_search` query for query
  while the Python interpreter cost is amortised over the whole batch.
  (Which of several points tied exactly at the k-th distance is kept is
  unspecified in both engines and may differ between them.)

Radius semantics are **inclusive** everywhere: a point at exactly the
search radius is returned.  This matters for step 4 of the distributed
protocol, where a remote point lying exactly at the owner's k-th distance
r' must not be dropped.  The heap-pruning bound itself stays strict
(a candidate tied with the current k-th distance cannot improve the heap).

The search accepts an initial radius bound so that *remote* queries (step 4
of the distributed protocol) start already pruned by the owner's local
result, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.cluster.metrics import PhaseCounters
from repro.kdtree.heap import BatchTopK, BoundedMaxHeap
from repro.kdtree.leafblocks import gather_columns_sq, scan_columns_sq
from repro.kdtree.tree import KDTree


@dataclass
class QueryStats:
    """Work counters accumulated over one or more queries."""

    queries: int = 0
    nodes_visited: int = 0
    leaves_scanned: int = 0
    distance_computations: int = 0
    heap_updates: int = 0

    def merge(self, other: "QueryStats") -> None:
        """Accumulate ``other`` into this instance."""
        self.queries += other.queries
        self.nodes_visited += other.nodes_visited
        self.leaves_scanned += other.leaves_scanned
        self.distance_computations += other.distance_computations
        self.heap_updates += other.heap_updates

    def charge(self, counters: PhaseCounters, dims: int) -> None:
        """Charge this work to a cluster phase counter set."""
        counters.nodes_visited += self.nodes_visited
        counters.distance_computations += self.distance_computations
        counters.distance_dims = max(counters.distance_dims, dims)
        counters.scalar_ops += self.heap_updates + self.queries


@dataclass
class KNNResult:
    """Result of one k-nearest-neighbour query."""

    distances: np.ndarray
    ids: np.ndarray
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def k_found(self) -> int:
        """Number of neighbours actually found (may be < k near boundaries)."""
        return int(self.ids.shape[0])


def knn_search(
    tree: KDTree,
    query: np.ndarray,
    k: int,
    radius: float = np.inf,
    stats: QueryStats | None = None,
) -> KNNResult:
    """Find the k nearest neighbours of ``query`` within ``radius``.

    Parameters
    ----------
    tree:
        The local kd-tree.
    query:
        ``(dims,)`` coordinate vector.
    k:
        Number of neighbours requested.
    radius:
        Initial search radius r (Euclidean, not squared), inclusive: a
        point at exactly distance r is returned.  Defaults to infinity;
        remote queries pass the owner's current k-th distance.
    stats:
        Optional external stats accumulator; this query's work is merged
        into it.  ``result.stats`` always holds the work of this query
        alone, so callers merging ``result.stats`` never double-count.

    Returns
    -------
    KNNResult
        Distances (ascending, Euclidean) and the corresponding global ids.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    query = np.asarray(query, dtype=np.float64).ravel()
    if tree.n_points and query.shape[0] != tree.dims:
        raise ValueError(f"query has {query.shape[0]} dims, tree has {tree.dims}")
    local_stats = QueryStats(queries=1)
    heap = BoundedMaxHeap(k)
    if tree.n_points == 0:
        if stats is not None:
            stats.merge(local_stats)
        return KNNResult(distances=np.empty(0), ids=np.empty(0, dtype=np.int64), stats=local_stats)

    radius_sq = radius * radius if np.isfinite(radius) else np.inf
    coords = tree.columns
    ids = tree.ids
    split_dim = tree.split_dim
    split_val = tree.split_val
    left = tree.left
    right = tree.right
    start = tree.start
    count = tree.count

    # Stack of (node, squared box lower bound, per-dimension offsets).  The
    # bound is the exact squared distance from the query to the node's
    # region; the offsets vector holds the query-to-region offset along
    # every dimension so that crossing a split plane on a dimension an
    # ancestor already split on *replaces* that dimension's contribution
    # instead of double-counting it (naive accumulation overestimates the
    # bound and wrongly prunes subtrees that contain true neighbours).
    stack: List[Tuple[int, float, np.ndarray]] = [(0, 0.0, np.zeros(tree.dims))]
    while stack:
        node, lower_bound, offsets = stack.pop()
        # Heap pruning is strict (a tie cannot improve the heap) while the
        # radius bound is inclusive (a point exactly at r must be kept).
        if lower_bound >= heap.worst() or lower_bound > radius_sq:
            continue
        local_stats.nodes_visited += 1
        dim = int(split_dim[node])
        if dim < 0:
            # Leaf bucket: exhaustive scan over the contiguous SoA column
            # slices (same per-dimension kernel as the batched engine, so
            # the two engines stay bit-identical per candidate).
            s = int(start[node])
            c = int(count[node])
            dists = scan_columns_sq(coords, s, c, query)
            local_stats.leaves_scanned += 1
            local_stats.distance_computations += c
            candidate_mask = (dists < heap.worst()) & (dists <= radius_sq)
            if np.any(candidate_mask):
                cand_dists = dists[candidate_mask]
                cand_ids = ids[s : s + c][candidate_mask]
                order = np.argsort(cand_dists, kind="stable")
                for d, pid in zip(cand_dists[order], cand_ids[order]):
                    if d < heap.worst():
                        heap.push(float(d), int(pid))
                        local_stats.heap_updates += 1
            continue

        # Internal node: descend towards the closer child first.  The
        # farther child's bound replaces this dimension's previous offset
        # with the (necessarily larger) distance to the new split plane.
        delta = query[dim] - split_val[node]
        old_offset = offsets[dim]
        plane_sq = lower_bound - old_offset * old_offset + delta * delta
        if delta <= 0.0:
            closer, farther = int(left[node]), int(right[node])
        else:
            closer, farther = int(right[node]), int(left[node])
        if plane_sq < heap.worst() and plane_sq <= radius_sq:
            far_offsets = offsets.copy()
            far_offsets[dim] = delta
            stack.append((farther, plane_sq, far_offsets))
        stack.append((closer, lower_bound, offsets))

    dists_sq, result_ids = heap.sorted_items()
    if stats is not None:
        stats.merge(local_stats)
    return KNNResult(distances=np.sqrt(dists_sq), ids=result_ids, stats=local_stats)


def batch_knn(
    tree: KDTree,
    queries: np.ndarray,
    k: int,
    radii: np.ndarray | float = np.inf,
    stats: QueryStats | None = None,
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Vectorised batched KNN: all queries traverse the tree in lockstep.

    Semantically equivalent to running :func:`knn_search` on every row of
    ``queries``: identical neighbour distances and identical ``QueryStats``
    counters (which of several points tied exactly at the k-th distance is
    kept is unspecified in both engines).  The traversal state of the whole
    batch is held in flat arrays so each iteration is a handful of NumPy
    operations instead of thousands of Python-level heap pushes.  Candidate
    filtering against the radius is inclusive and the heap bound strict,
    exactly as in the scalar engine.

    Returns ``(distances, ids, stats)`` where the arrays have shape
    ``(n_queries, k)``; missing neighbours (fewer than k in range) are padded
    with ``inf`` distances and id ``-1``.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = queries.shape[0]
    agg = QueryStats(queries=n_queries)
    if tree.n_points == 0 or n_queries == 0:
        if stats is not None:
            stats.merge(agg)
        return (
            np.full((n_queries, k), np.inf, dtype=np.float64),
            np.full((n_queries, k), -1, dtype=np.int64),
            agg,
        )
    if queries.shape[1] != tree.dims:
        raise ValueError(f"queries have {queries.shape[1]} dims, tree has {tree.dims}")
    radii_arr = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n_queries,))
    radius_sq = np.where(np.isfinite(radii_arr), radii_arr * radii_arr, np.inf)

    coords = tree.columns
    ids = tree.ids
    split_dim = tree.split_dim
    split_val = tree.split_val
    left = tree.left
    right = tree.right
    start = tree.start
    count = tree.count

    topk = BatchTopK(n_queries, k)
    bounds = topk.bounds()  # live view: shrinks as candidates are accepted

    # Per-query DFS stacks in one array set.  A DFS stack never exceeds
    # depth+1 entries (each internal pop removes one entry and pushes at
    # most two), but the arrays grow on demand should a tree violate that.
    # Each entry carries the node, its exact squared box lower bound and
    # the per-dimension query-to-region offsets behind that bound, so a
    # repeated split dimension replaces its previous contribution exactly
    # as in the scalar traversal.
    depth = tree.stats.max_depth if tree.stats.max_depth > 0 else tree.depth()
    n_dims = tree.dims
    stack_cap = depth + 3
    stack_node = np.zeros((n_queries, stack_cap), dtype=np.int64)
    stack_lb = np.zeros((n_queries, stack_cap), dtype=np.float64)
    stack_off = np.zeros((n_queries, stack_cap, n_dims), dtype=np.float64)
    stack_len = np.ones(n_queries, dtype=np.int64)  # every stack starts at the root

    active = np.arange(n_queries)
    while active.size:
        top = stack_len[active] - 1
        nodes = stack_node[active, top]
        lbs = stack_lb[active, top]
        pop_off = stack_off[active, top]
        stack_len[active] = top
        # Pop-time prune: strict against the heap bound, inclusive radius.
        visit = (lbs < bounds[active]) & (lbs <= radius_sq[active])
        vq = active[visit]
        if vq.size:
            vnodes = nodes[visit]
            agg.nodes_visited += int(vq.size)
            dims_v = split_dim[vnodes]
            leaf_mask = dims_v < 0

            lq = vq[leaf_mask]
            if lq.size:
                # One padded gather over the flat per-dimension columns
                # scans every leaf visited this iteration; candidate sets
                # merge into the batch top-k.
                lnodes = vnodes[leaf_mask]
                starts = start[lnodes]
                counts = count[lnodes]
                cmax = int(counts.max())
                agg.leaves_scanned += int(lq.size)
                agg.distance_computations += int(counts.sum())
                if cmax > 0:
                    offs = np.arange(cmax)
                    valid = offs[None, :] < counts[:, None]
                    idx = np.where(valid, starts[:, None] + offs[None, :], 0)
                    d2 = gather_columns_sq(coords, idx, queries[lq])
                    within = valid & (d2 <= radius_sq[lq, None])
                    cand_d = np.where(within, d2, np.inf)
                    cand_i = np.where(within, ids[idx], -1)
                    accepted = topk.update(lq, cand_d, cand_i)
                    agg.heap_updates += int(accepted.sum())

            iq = vq[~leaf_mask]
            if iq.size:
                inodes = vnodes[~leaf_mask]
                ilbs = lbs[visit][~leaf_mask]
                ioffs = pop_off[visit][~leaf_mask]
                dim = dims_v[~leaf_mask]
                delta = queries[iq, dim] - split_val[inodes]
                go_left = delta <= 0.0
                closer = np.where(go_left, left[inodes], right[inodes])
                farther = np.where(go_left, right[inodes], left[inodes])
                old_offset = ioffs[np.arange(iq.size), dim]
                plane = ilbs - old_offset * old_offset + delta * delta
                push_far = (plane < bounds[iq]) & (plane <= radius_sq[iq])

                need = int(stack_len[iq].max()) + 2
                if need > stack_cap:
                    extra = need - stack_cap
                    stack_node = np.pad(stack_node, ((0, 0), (0, extra)))
                    stack_lb = np.pad(stack_lb, ((0, 0), (0, extra)))
                    stack_off = np.pad(stack_off, ((0, 0), (0, extra), (0, 0)))
                    stack_cap = need

                # Farther child below the closer one, so the closer subtree
                # is explored first — same order as the scalar DFS.
                fq = iq[push_far]
                far_offs = ioffs[push_far]  # fancy indexing: already a fresh array
                far_offs[np.arange(fq.size), dim[push_far]] = delta[push_far]
                pos = stack_len[fq]
                stack_node[fq, pos] = farther[push_far]
                stack_lb[fq, pos] = plane[push_far]
                stack_off[fq, pos] = far_offs
                stack_len[fq] = pos + 1
                pos = stack_len[iq]
                stack_node[iq, pos] = closer
                stack_lb[iq, pos] = ilbs
                stack_off[iq, pos] = ioffs
                stack_len[iq] = pos + 1
        active = np.flatnonzero(stack_len > 0)

    out_d_sq, out_i = topk.sorted_results()
    if stats is not None:
        stats.merge(agg)
    return np.sqrt(out_d_sq), out_i, agg


def batch_knn_scalar(
    tree: KDTree,
    queries: np.ndarray,
    k: int,
    radii: np.ndarray | float = np.inf,
    stats: QueryStats | None = None,
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Reference batch path: one scalar :func:`knn_search` per query row.

    Kept as the A/B baseline for :func:`batch_knn` — both must return the
    same neighbour distances and the same aggregated ``QueryStats`` (tie
    identity at the k-th distance excepted).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = queries.shape[0]
    out_d = np.full((n_queries, k), np.inf, dtype=np.float64)
    out_i = np.full((n_queries, k), -1, dtype=np.int64)
    agg = QueryStats()
    radii_arr = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n_queries,))
    for qi in range(n_queries):
        result = knn_search(tree, queries[qi], k, radius=float(radii_arr[qi]))
        found = result.k_found
        out_d[qi, :found] = result.distances
        out_i[qi, :found] = result.ids
        agg.merge(result.stats)
    if stats is not None:
        stats.merge(agg)
    return out_d, out_i, agg


def brute_force_knn(
    points: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exhaustive reference KNN used to verify kd-tree results.

    Returns ``(distances, ids)`` with shape ``(n_queries, k)``, padded with
    ``inf`` / ``-1`` when fewer than k points exist.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    ids = np.asarray(ids, dtype=np.int64)
    n_queries = queries.shape[0]
    n_points = points.shape[0]
    out_d = np.full((n_queries, k), np.inf, dtype=np.float64)
    out_i = np.full((n_queries, k), -1, dtype=np.int64)
    if n_points == 0:
        return out_d, out_i
    take = min(k, n_points)
    dims = points.shape[1]
    # Chunk the queries to bound the (chunk, n_points) per-dimension
    # difference matrix; exact differences avoid the precision loss of the
    # expanded |a|^2 - 2ab + |b|^2 formulation on near-duplicate points.
    chunk = max(1, int(5e6 // max(n_points * max(dims, 1), 1)))
    for lo in range(0, n_queries, chunk):
        hi = min(lo + chunk, n_queries)
        block = queries[lo:hi]
        # Accumulate per dimension in index order, starting from zeros —
        # the exact operation sequence of the leaf-block kernels
        # (:func:`repro.kdtree.leafblocks.gather_columns_sq`), so a point
        # scores the same bits whether it lives in a tree or in a service's
        # delta buffer.
        d2 = np.zeros((hi - lo, n_points), dtype=np.float64)
        for d in range(dims):
            diff = block[:, d, None] - points[None, :, d]
            d2 += diff * diff
        idx = np.argpartition(d2, take - 1, axis=1)[:, :take]
        part = np.take_along_axis(d2, idx, axis=1)
        order = np.argsort(part, axis=1, kind="stable")
        idx_sorted = np.take_along_axis(idx, order, axis=1)
        out_d[lo:hi, :take] = np.sqrt(np.take_along_axis(part, order, axis=1))
        out_i[lo:hi, :take] = ids[idx_sorted]
    return out_d, out_i
