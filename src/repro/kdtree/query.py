"""k-nearest-neighbour search over a local kd-tree (paper Algorithm 1).

Two engines compute the same answer, and :func:`batch_knn` picks between
them per call from the batch's size and ``k`` alone:

* the single-query engine (:func:`knn_search`, and one row at a time behind
  :func:`batch_knn` for small batches).  A stack of ``(node, lower_bound,
  offsets)`` entries drives a depth-first descent (closer child first); the
  bound is the exact squared distance from the query to the node's region,
  maintained incrementally by *replacing* the crossed dimension's offset
  (ANN-style incremental distance computation — summing plane distances
  would double-count repeated split dimensions and prune subtrees that hold
  true neighbours).  A sorted top-k (:func:`~repro.kdtree.heap.offer_sorted`)
  holds the best k candidates and its last entry is the pruning radius r',
  progressively shrunk as closer candidates are found.  Stack, offsets and
  bound are plain Python values; leaf buckets are scanned with one
  vectorised distance kernel.
* the lockstep engine, for batches large enough to amortise its fixed cost
  per iteration.  All queries of a batch advance together: per-query DFS
  stacks live in one ``(n_queries, stack_cap)`` array pair, the per-query
  pruning bounds are one vector (the k-th column of a
  :class:`~repro.kdtree.heap.BatchTopK`), and every iteration pops one node
  per active query.  Queries sitting at leaf buckets are scanned together
  with a single padded gather over the structure-of-arrays leaf columns
  (:mod:`repro.kdtree.leafblocks`).  Only candidates strictly below their
  query's bound (and within its radius) are offered, so only the rows
  holding one are folded into the batch top-k, with one sorted merge.  A
  candidate at or above the k-th distance could never be accepted, so
  the answers and counters are those of offering every candidate.

Every query performs exactly the node visits of its own DFS in either
engine, both share one per-dimension distance kernel, and both top-k
structures insert a candidate after the entries it ties with.  So
distances, ids *and* ``QueryStats`` counters are identical row for row,
whatever batch a query arrives in.  The tie rule, for both engines: among
candidates tied at a distance, the one met first in the query's own DFS
scan order is kept.

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
from repro.kdtree.heap import BatchTopK, offer_sorted
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


def query_rows(queries) -> np.ndarray:
    """``queries`` as a float64 ``(n, dims)`` array (one 1-D query becomes
    one row); ``ValueError`` naming the shape for anything not 1-D or 2-D."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim not in (1, 2):
        raise ValueError(f"queries must be 1-D or 2-D, got shape {queries.shape}")
    return np.atleast_2d(queries)


def _check_radii(radii) -> None:
    """Reject a negative or NaN search radius (its square would hide both)."""
    if not np.all(np.asarray(radii) >= 0.0):
        raise ValueError(f"search radius must be non-negative and not NaN, got {radii}")


def _search_row(tree: KDTree, q: List[float], k: int, radius_sq: float):
    """One query's DFS over a non-empty tree: the single-query kernel.

    Returns ``(squared distances, ids, stats)``: two parallel lists,
    ascending and at most ``k`` long, and this query's work counters.
    """
    coords = tree.columns
    ids = tree.ids
    dim_of = tree.split_dim.item
    val_of = tree.split_val.item
    left_of = tree.left.item
    right_of = tree.right.item
    start_of = tree.start.item
    count_of = tree.count.item

    # Sorted top-k as two parallel lists; ``bound`` is the pruning radius
    # r'^2: inf until k candidates are held, the k-th distance afterwards.
    top_d: List[float] = []
    top_i: List[int] = []
    bound = np.inf
    stats = QueryStats(queries=1)
    nodes = 0  # per-node counter kept local; the per-leaf ones go straight to stats

    # Stack of (node, squared box lower bound, per-dimension offsets).  The
    # bound is the exact squared distance from the query to the node's
    # region; the offsets hold the query-to-region offset along every
    # dimension so that crossing a split plane on a dimension an ancestor
    # already split on *replaces* that dimension's contribution instead of
    # double-counting it (naive accumulation overestimates the bound and
    # wrongly prunes subtrees that contain true neighbours).
    stack = [(0, 0.0, [0.0] * len(q))]
    while stack:
        node, lower_bound, offsets = stack.pop()
        # Heap pruning is strict (a tie cannot improve the top-k) while the
        # radius bound is inclusive (a point exactly at r must be kept).
        if lower_bound >= bound or lower_bound > radius_sq:
            continue
        nodes += 1
        dim = dim_of(node)
        if dim < 0:
            # Leaf bucket: exhaustive scan over the contiguous SoA column
            # slices (same per-dimension kernel as the lockstep engine, so
            # the two engines stay bit-identical per candidate).
            s = start_of(node)
            c = count_of(node)
            dists = scan_columns_sq(coords, s, c, q)
            stats.leaves_scanned += 1
            stats.distance_computations += c
            # One comparison decides: whichever limit is tighter implies
            # the other (strict against the bound, inclusive radius).
            hits = np.flatnonzero(dists < bound if bound <= radius_sq else dists <= radius_sq)
            if hits.size:
                # Ascending and stable, so equal distances are offered in
                # scan order and every accepted candidate stays accepted.
                hits = hits[np.argsort(dists[hits], kind="stable")]
                stats.heap_updates += offer_sorted(
                    top_d, top_i, k, dists[hits].tolist(), ids[s + hits].tolist()
                )
                if len(top_d) == k:
                    bound = top_d[-1]
            continue

        # Internal node: descend towards the closer child first.  The
        # farther child's bound replaces this dimension's previous offset
        # with the (necessarily larger) distance to the new split plane.
        delta = q[dim] - val_of(node)
        old_offset = offsets[dim]
        plane_sq = lower_bound - old_offset * old_offset + delta * delta
        if delta <= 0.0:
            closer, farther = left_of(node), right_of(node)
        else:
            closer, farther = right_of(node), left_of(node)
        if plane_sq < bound and plane_sq <= radius_sq:
            far_offsets = offsets[:]
            far_offsets[dim] = delta
            stack.append((farther, plane_sq, far_offsets))
        stack.append((closer, lower_bound, offsets))
    stats.nodes_visited = nodes
    return top_d, top_i, stats


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
        remote queries pass the owner's current k-th distance.  Negative
        or NaN raises ``ValueError``.
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
    _check_radii(radius)
    query = np.asarray(query, dtype=np.float64).ravel()
    if not np.isfinite(query).all():
        raise ValueError("query must have finite coordinates (found nan or inf)")
    if tree.n_points and query.shape[0] != tree.dims:
        raise ValueError(f"query has {query.shape[0]} dims, tree has {tree.dims}")
    if tree.n_points:
        radius = float(radius)
        dists_sq, result_ids, local_stats = _search_row(tree, query.tolist(), k, radius * radius)
    else:
        dists_sq, result_ids, local_stats = [], [], QueryStats(queries=1)
    if stats is not None:
        stats.merge(local_stats)
    return KNNResult(
        distances=np.sqrt(np.array(dists_sq, dtype=np.float64)),
        ids=np.array(result_ids, dtype=np.int64),
        stats=local_stats,
    )


def _rows_engine(tree: KDTree, queries: np.ndarray, k: int, radius_sq: np.ndarray):
    """Row-by-row engine: one :func:`_search_row` per query."""
    n_queries = queries.shape[0]
    out_d = np.full((n_queries, k), np.inf, dtype=np.float64)
    out_i = np.full((n_queries, k), -1, dtype=np.int64)
    agg = QueryStats()
    for qi, (q, r_sq) in enumerate(zip(queries.tolist(), radius_sq.tolist())):
        top_d, top_i, row_stats = _search_row(tree, q, k, r_sq)
        out_d[qi, : len(top_d)] = top_d
        out_i[qi, : len(top_i)] = top_i
        agg.merge(row_stats)
    return out_d, out_i, agg


def _lockstep_engine(tree: KDTree, queries: np.ndarray, k: int, radius_sq: np.ndarray):
    """Lockstep engine: the whole batch advances one node per iteration."""
    n_queries = queries.shape[0]
    agg = QueryStats(queries=n_queries)
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
                    # Only a candidate strictly below the k-th distance can
                    # enter the top-k (as in _search_row), so rows without
                    # one skip the merge and the id gather entirely.
                    within = valid & (d2 <= radius_sq[lq, None]) & (d2 < bounds[lq, None])
                    hit = np.flatnonzero(within.any(axis=1))
                    if hit.size:
                        within = within[hit]
                        cand_d = np.where(within, d2[hit], np.inf)
                        cand_i = np.where(within, ids[idx[hit]], -1)
                        accepted = topk.update(lq[hit], cand_d, cand_i)
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
    return out_d_sq, out_i, agg


#: Per-call engine crossover, measured by the small-batch sweep of
#: ``benchmarks/bench_kernels.py`` (``small_batch`` in ``BENCH_kernels.json``):
#: the row-by-row engine stops beating the lockstep one between 32 and 128
#: queries at k = 8 and between 16 and 64 at k = 136, depending on the
#: dimensionality, so each width uses the low end of its range.
_ROW_BY_ROW_MAX_QUERIES = 32
_WIDE_K = 64
_ROW_BY_ROW_MAX_QUERIES_WIDE_K = 16


def _row_by_row_max(k: int) -> int:
    """Largest batch the row-by-row engine answers (see the constants above)."""
    return _ROW_BY_ROW_MAX_QUERIES if k <= _WIDE_K else _ROW_BY_ROW_MAX_QUERIES_WIDE_K


def _answer(engine, tree, queries, k, radii, stats):
    """Shared prologue/epilogue of the batch entry points."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    _check_radii(radii)
    queries = query_rows(queries)
    if not np.isfinite(queries).all():
        raise ValueError("queries must have finite coordinates (found nan or inf)")
    n_queries = queries.shape[0]
    if tree.n_points == 0 or n_queries == 0:
        agg = QueryStats(queries=n_queries)
        out_d_sq = np.full((n_queries, k), np.inf, dtype=np.float64)
        out_i = np.full((n_queries, k), -1, dtype=np.int64)
    else:
        if queries.shape[1] != tree.dims:
            raise ValueError(f"queries have {queries.shape[1]} dims, tree has {tree.dims}")
        radii_arr = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n_queries,))
        if engine is None:
            engine = _rows_engine if n_queries <= _row_by_row_max(k) else _lockstep_engine
        out_d_sq, out_i, agg = engine(tree, queries, k, radii_arr * radii_arr)
    if stats is not None:
        stats.merge(agg)
    return np.sqrt(out_d_sq), out_i, agg


def batch_knn(
    tree: KDTree,
    queries: np.ndarray,
    k: int,
    radii: np.ndarray | float = np.inf,
    stats: QueryStats | None = None,
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Batched KNN: one answer per query row, whichever engine computes it.

    Picks per call, from the number of queries and ``k`` alone, between the
    row-by-row loop and the lockstep traversal (small batches cannot
    amortise the lockstep loop's fixed cost).  The choice is invisible:
    both engines return identical distances, ids and ``QueryStats``
    counters for every row (module docstring), so the answer to a query
    does not depend on the batch it arrived in.  Candidate filtering
    against the radius is inclusive and the top-k bound strict.  A negative
    or NaN radius raises ``ValueError``.

    Returns ``(distances, ids, stats)`` where the arrays have shape
    ``(n_queries, k)``; missing neighbours (fewer than k in range) are padded
    with ``inf`` distances and id ``-1``.
    """
    return _answer(None, tree, queries, k, radii, stats)


def batch_knn_scalar(
    tree: KDTree,
    queries: np.ndarray,
    k: int,
    radii: np.ndarray | float = np.inf,
    stats: QueryStats | None = None,
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """:func:`batch_knn` pinned to the row-by-row engine at every batch size."""
    return _answer(_rows_engine, tree, queries, k, radii, stats)


def _batch_knn_lockstep(
    tree: KDTree,
    queries: np.ndarray,
    k: int,
    radii: np.ndarray | float = np.inf,
    stats: QueryStats | None = None,
) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """:func:`batch_knn` pinned to the lockstep engine at every batch size.

    With :func:`batch_knn_scalar`, the two sides of the engine A/B tests
    and benchmarks, which must keep comparing the engines below the
    crossover too.
    """
    return _answer(_lockstep_engine, tree, queries, k, radii, stats)


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
