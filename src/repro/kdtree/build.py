"""Local kd-tree construction (paper Section III-A, steps ii-iv).

The builder reproduces the three intra-node phases the paper separates for
its Fig. 5(b) breakdown:

* ``local_data_parallel`` — the top levels are processed one level at a time
  (breadth-first) because there are not yet enough branches for thread-level
  parallelism; threads cooperate on the split/shuffle of each node.
* ``local_thread_parallel`` — once the frontier holds roughly
  ``threads x 10`` branches, each subtree is built by one thread.
* ``local_simd_packing`` — finally the points are shuffled into leaf order
  so that each bucket is contiguous in memory.

Within shared memory only the *index permutation* is shuffled during the
first two phases (the paper: "the shuffling stage only involves moving the
index, not the points themselves"); the points move exactly once, during
SIMD packing.

Two implementations share the same semantics:

* :func:`build_kdtree` — the default *level-synchronous vectorised* build.
  Every level's whole frontier is processed in lockstep over flat arrays:
  per-node split dimensions come from segment reductions
  (``np.ufunc.reduceat``) over the level's gathered points, split values
  from batched per-segment selection (:mod:`repro.kdtree.splitters`,
  :mod:`repro.kdtree.median`), and the partition of every frontier node is
  one stable counting-rank shuffle of the level.  Nodes are renumbered at
  the end into the exact order the scalar builder allocates, so both
  builders return array-identical trees under deterministic strategies.
* :func:`build_kdtree_scalar` — the per-node reference implementation
  (one Python iteration per node), kept for A/B testing exactly like
  ``batch_knn_scalar`` on the query side.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.cluster.metrics import PhaseCounters
from repro.kdtree.splitters import (
    SplitContext,
    batched_choose_split_dimensions,
    batched_choose_split_values,
    choose_split_dimension,
    choose_split_value,
    segment_indices,
)
from repro.kdtree.tree import LEAF, KDTree, KDTreeConfig, TreeBuildStats

#: Phase names charged during a local build (shared with repro.core).
PHASE_DATA_PARALLEL = "local_data_parallel"
PHASE_THREAD_PARALLEL = "local_thread_parallel"
PHASE_SIMD_PACKING = "local_simd_packing"


class _TreeAccumulator:
    """Growable node storage used by the scalar builder."""

    def __init__(self) -> None:
        self.split_dim: List[int] = []
        self.split_val: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.start: List[int] = []
        self.count: List[int] = []

    def new_node(self) -> int:
        """Append an uninitialised node and return its index."""
        self.split_dim.append(LEAF)
        self.split_val.append(np.nan)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.start.append(0)
        self.count.append(0)
        return len(self.split_dim) - 1

    def set_leaf(self, node: int, start: int, count: int) -> None:
        self.split_dim[node] = LEAF
        self.left[node] = LEAF
        self.right[node] = LEAF
        self.start[node] = start
        self.count[node] = count

    def set_internal(self, node: int, dim: int, value: float, left: int, right: int,
                     start: int, count: int) -> None:
        self.split_dim[node] = dim
        self.split_val[node] = value
        self.left[node] = left
        self.right[node] = right
        self.start[node] = start
        self.count[node] = count


def _partition(
    points: np.ndarray,
    perm: np.ndarray,
    start: int,
    end: int,
    dim: int,
    value: float,
    counters: PhaseCounters | None = None,
) -> Tuple[int, float, bool]:
    """Partition ``perm[start:end]`` around ``value`` along ``dim``.

    Returns ``(mid, value, ok)`` where ``perm[start:mid]`` holds points with
    coordinate <= value and ``perm[mid:end]`` the rest.  When the requested
    value produces an empty side (skewed estimate or heavy duplication) the
    function falls back to a balanced split at the middle of the sorted
    order and adjusts the split value so the kd-tree invariant
    (left <= value < right) still holds; ``ok`` is False when even that is
    impossible because every coordinate is identical.

    The actual work is charged to ``counters``: one comparison per element
    for the mask, the elements moved by whichever shuffle ran, and the
    O(n log n) sort cost when the fallback is taken.  A failed partition
    (``ok`` False) moves nothing and is charged nothing beyond the scan
    that discovered it.
    """
    segment = perm[start:end]
    values = points[segment, dim]
    n_total = segment.size
    if counters is not None:
        counters.scalar_ops += n_total
    mask = values <= value
    n_left = int(np.count_nonzero(mask))
    if 0 < n_left < n_total:
        ordered = np.concatenate([segment[mask], segment[~mask]])
        perm[start:end] = ordered
        if counters is not None:
            counters.elements_moved += n_total
        return start + n_left, value, True

    # Fallback: split the sorted order at the middle, placing duplicates of
    # the boundary value entirely on the left so the invariant holds.
    if counters is not None:
        counters.scalar_ops += int(n_total * np.log2(max(n_total, 2)))
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    if sorted_vals[0] == sorted_vals[-1]:
        return start, value, False
    mid = n_total // 2
    boundary = sorted_vals[mid - 1] if mid > 0 else sorted_vals[0]
    n_left = int(np.searchsorted(sorted_vals, boundary, side="right"))
    if n_left == 0 or n_left == n_total:
        # boundary fell on the extreme; move it to the first value change.
        n_left = int(np.searchsorted(sorted_vals, sorted_vals[0], side="right"))
        boundary = sorted_vals[n_left - 1]
        if n_left == n_total:
            return start, value, False
    perm[start:end] = segment[order]
    if counters is not None:
        counters.elements_moved += n_total
    return start + n_left, float(boundary), True


def _split_node(
    points: np.ndarray,
    perm: np.ndarray,
    start: int,
    end: int,
    depth: int,
    config: KDTreeConfig,
    ctx: SplitContext,
) -> Tuple[int, float, int, bool]:
    """Choose a split for ``perm[start:end]`` and partition it in place.

    Returns ``(mid, split_value, split_dim, ok)``.
    """
    segment_points = points[perm[start:end]]
    dim = choose_split_dimension(segment_points, config.split_dim_strategy, ctx, depth)
    values = segment_points[:, dim]
    if values.min() == values.max():
        # Degenerate along the preferred dimension: fall back to the widest one.
        extents = segment_points.max(axis=0) - segment_points.min(axis=0)
        dim = int(np.argmax(extents))
        values = segment_points[:, dim]
        if values.min() == values.max():
            return start, float(values[0]), dim, False
    value = choose_split_value(values, config.split_value_strategy, ctx)
    mid, value, ok = _partition(points, perm, start, end, dim, value, ctx.counters)
    return mid, value, dim, ok


def _coerce_inputs(
    points: np.ndarray,
    ids: np.ndarray | None,
    config: KDTreeConfig | None,
    threads: int,
    rng: np.random.Generator | None,
) -> Tuple[np.ndarray, np.ndarray, KDTreeConfig, np.random.Generator, int]:
    """Validate and normalise the shared ``build_kdtree*`` arguments.

    A ``bucket_size`` of ``None`` resolves here to the leaf size for the
    points' dimensionality (see :class:`KDTreeConfig`), so every built
    tree's ``config`` holds an int.
    """
    config = config or KDTreeConfig()
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n, dims = points.shape
    if dims == 0:
        raise ValueError("points must have at least one dimension")
    if config.bucket_size is None:
        config = replace(config, bucket_size=32 if dims <= 3 else 128)
    if not np.isfinite(points).all():
        # No query could ever reach such a point.
        raise ValueError("points must have finite coordinates (found nan or inf)")
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[0] != n:
        raise ValueError(f"ids length {ids.shape[0]} does not match points {n}")
    if threads <= 0:
        raise ValueError(f"threads must be positive, got {threads}")
    rng = rng or np.random.default_rng(config.seed)
    return points, ids, config, rng, n


def _split_contexts(
    config: KDTreeConfig, rng: np.random.Generator, stats: TreeBuildStats
) -> Tuple[SplitContext, SplitContext]:
    """Build the data-parallel / thread-parallel split contexts.

    Both Fig. 5(b) construction phases are registered on ``stats`` as a side
    effect, so even a build that never reaches one of them (an empty rank,
    a single-leaf input) exposes all phase counter sets.
    """
    dp_counters = stats.phase(PHASE_DATA_PARALLEL)
    tp_counters = stats.phase(PHASE_THREAD_PARALLEL)
    make = lambda counters: SplitContext(
        rng=rng,
        sample_size=config.variance_sample_size,
        median_samples=config.median_samples,
        binning=config.binning,
        counters=counters,
    )
    return make(dp_counters), make(tp_counters)


def build_kdtree(
    points: np.ndarray,
    ids: np.ndarray | None = None,
    config: KDTreeConfig | None = None,
    threads: int = 1,
    rng: np.random.Generator | None = None,
) -> KDTree:
    """Build a kd-tree over ``points`` (level-synchronous vectorised build).

    The whole frontier of each level is processed in lockstep: one gather of
    the level's points, segment reductions for per-node split dimensions,
    batched per-segment split-value selection, and a single stable
    counting-rank partition for every node of the level.  The result is
    array-identical to :func:`build_kdtree_scalar` under deterministic
    strategies (node numbering included) at ~5-6x lower cost at the
    200k-point benchmark scale.

    Parameters
    ----------
    points:
        ``(n, dims)`` array of coordinates.
    ids:
        Optional global identifiers carried alongside each point (defaults
        to ``0..n-1``); the distributed layer stores dataset-wide ids here.
    config:
        Construction parameters (defaults to PANDA's configuration).
    threads:
        Modeled thread count; controls when construction switches from the
        breadth-first to the depth-first phase and how the phase counters
        are attributed.  The build itself is sequential.
    rng:
        Random generator for the sampling rules; a seeded default is derived
        from ``config.seed`` so builds are reproducible.

    Returns
    -------
    KDTree
        The packed tree, with per-phase counters available in
        ``tree.stats.phase_counters``.
    """
    points, ids, config, rng, n = _coerce_inputs(points, ids, config, threads, rng)
    stats = TreeBuildStats(n_points=n)
    perm = np.arange(n, dtype=np.int64)
    dp_ctx, tp_ctx = _split_contexts(config, rng, stats)

    if n == 0:
        return _finalise(
            points, ids, perm,
            np.array([LEAF]), np.array([np.nan]), np.array([LEAF]),
            np.array([LEAF]), np.array([0]), np.array([0]),
            config, stats,
        )

    bucket = config.bucket_size
    target_branches = max(threads * config.data_parallel_factor, 1)

    blk_dim: List[np.ndarray] = []
    blk_val: List[np.ndarray] = []
    blk_left: List[np.ndarray] = []
    blk_right: List[np.ndarray] = []
    blk_start: List[np.ndarray] = []
    blk_count: List[np.ndarray] = []

    starts = np.zeros(1, dtype=np.int64)
    ends = np.full(1, n, dtype=np.int64)
    depth = 0
    id_base = 0      # node id of the first frontier entry of this level
    n_nodes = 1      # nodes allocated so far (the root)
    in_dp = True
    switched = False
    tp_first_root = 0
    tp_base = 1

    while starts.size:
        frontier_size = int(starts.size)
        counts = ends - starts
        splittable = counts > bucket
        if in_dp:
            # Same switch rule the scalar builder checks at the top of each
            # breadth-first iteration.
            if frontier_size >= target_branches or not splittable.any():
                in_dp = False
                switched = True
                tp_first_root = id_base
                tp_base = n_nodes
                stats.thread_parallel_subtrees = frontier_size
            else:
                stats.data_parallel_levels += 1
        ctx = dp_ctx if in_dp else tp_ctx
        stats.max_depth = max(stats.max_depth, depth)

        lvl_dim = np.full(frontier_size, LEAF, dtype=np.int64)
        lvl_val = np.full(frontier_size, np.nan, dtype=np.float64)
        lvl_left = np.full(frontier_size, LEAF, dtype=np.int64)
        lvl_right = np.full(frontier_size, LEAF, dtype=np.int64)

        next_starts = np.empty(0, dtype=np.int64)
        next_ends = np.empty(0, dtype=np.int64)
        spl = np.flatnonzero(splittable)
        if spl.size:
            s_start = starts[spl]
            s_end = ends[spl]
            dims_s, val_s, mid_s, ok_s = _split_frontier(
                points, perm, s_start, s_end, depth, config, ctx
            )
            internal = np.flatnonzero(ok_s)
            stats.forced_leaves += int(spl.size - internal.size)
            n_split = int(internal.size)
            if n_split:
                pos = spl[internal]
                lvl_dim[pos] = dims_s[internal]
                lvl_val[pos] = val_s[internal]
                left_ids = n_nodes + 2 * np.arange(n_split, dtype=np.int64)
                lvl_left[pos] = left_ids
                lvl_right[pos] = left_ids + 1
                n_nodes += 2 * n_split
                next_starts = np.empty(2 * n_split, dtype=np.int64)
                next_ends = np.empty(2 * n_split, dtype=np.int64)
                next_starts[0::2] = s_start[internal]
                next_starts[1::2] = mid_s[internal]
                next_ends[0::2] = mid_s[internal]
                next_ends[1::2] = s_end[internal]

        blk_dim.append(lvl_dim)
        blk_val.append(lvl_val)
        blk_left.append(lvl_left)
        blk_right.append(lvl_right)
        blk_start.append(starts)
        blk_count.append(counts)
        id_base += frontier_size
        starts, ends = next_starts, next_ends
        depth += 1

    split_dim = np.concatenate(blk_dim)
    split_val = np.concatenate(blk_val)
    left = np.concatenate(blk_left)
    right = np.concatenate(blk_right)
    start = np.concatenate(blk_start)
    count = np.concatenate(blk_count)
    if switched and n_nodes > tp_base:
        split_dim, split_val, left, right, start, count = _renumber_to_scalar_order(
            split_dim, split_val, left, right, start, count,
            tp_first_root, stats.thread_parallel_subtrees, tp_base,
        )
    return _finalise(points, ids, perm, split_dim, split_val, left, right,
                     start, count, config, stats)


def _split_frontier(
    points: np.ndarray,
    perm: np.ndarray,
    s_start: np.ndarray,
    s_end: np.ndarray,
    depth: int,
    config: KDTreeConfig,
    ctx: SplitContext,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every frontier segment of one level in lockstep.

    ``perm`` is shuffled in place.  Returns per-segment arrays
    ``(split_dim, split_value, mid, ok)``; segments with ``ok`` False could
    not be split (all coordinates identical) and become forced leaves.
    """
    n_seg = int(s_start.size)
    m = s_end - s_start
    offsets = np.concatenate(([0], np.cumsum(m)))
    contiguous = n_seg == 1 or bool((s_start[1:] == s_end[:-1]).all())
    if contiguous:
        # Adjacent segments (the common case until leaves start appearing):
        # the level is one contiguous slice of the permutation, so the
        # gather/scatter below can use views instead of index arrays.
        level_lo = int(s_start[0])
        level_hi = int(s_end[-1])
        idx = None
        perm_lvl = perm[level_lo:level_hi]
    else:
        idx = segment_indices(s_start, m)
        perm_lvl = perm[idx]
    lvl_pts = points[perm_lvl]
    mn = np.minimum.reduceat(lvl_pts, offsets[:-1], axis=0)
    mx = np.maximum.reduceat(lvl_pts, offsets[:-1], axis=0)
    extents = mx - mn
    dims = batched_choose_split_dimensions(
        lvl_pts, offsets, config.split_dim_strategy, ctx, depth, extents=extents
    )
    rows = np.arange(n_seg)
    degenerate = extents[rows, dims] == 0.0
    if degenerate.any():
        # Same fallback as the scalar path: degenerate along the preferred
        # dimension -> widest dimension; still degenerate -> forced leaf.
        dims[degenerate] = np.argmax(extents[degenerate], axis=1)
    alive = extents[rows, dims] > 0.0

    ok = np.zeros(n_seg, dtype=bool)
    values = np.full(n_seg, np.nan)
    mids = np.full(n_seg, -1, dtype=np.int64)
    live = np.flatnonzero(alive)
    if live.size == 0:
        return dims, values, mids, ok

    group_ids = np.repeat(rows, m)
    n_dims = lvl_pts.shape[1]
    elem_arange = np.arange(lvl_pts.shape[0], dtype=np.int64)
    vals_all = np.take(lvl_pts.ravel(), elem_arange * n_dims + dims[group_ids])
    all_live = live.size == n_seg
    if all_live:
        vals2, m2 = vals_all, m
        g2 = group_ids
        off2 = offsets
        elem2 = elem_arange
        idx2 = idx
    else:
        if idx is None:
            idx = np.arange(level_lo, level_hi, dtype=np.int64)
        elem_live = alive[group_ids]
        vals2 = vals_all[elem_live]
        idx2 = idx[elem_live]
        m2 = m[live]
        off2 = np.concatenate(([0], np.cumsum(m2)))
        g2 = np.repeat(np.arange(live.size), m2)
        elem2 = np.arange(vals2.size, dtype=np.int64)
    split_vals = batched_choose_split_values(
        vals2, off2, config.split_value_strategy, ctx
    )

    mask = vals2 <= split_vals[g2]
    isleft = mask.astype(np.int64)
    nleft = np.add.reduceat(isleft, off2[:-1])
    fast = (nleft > 0) & (nleft < m2)
    if fast.any():
        # Stable counting-rank partition of the whole level: each element's
        # destination is its group's base plus its rank among same-side
        # elements, which preserves the original order on both sides exactly
        # like the scalar concatenate([seg[mask], seg[~mask]]).
        grp_starts = off2[:-1]
        cl = np.cumsum(isleft)
        left_before = np.concatenate(([0], cl))[grp_starts]
        left_rank = (cl - isleft) - left_before[g2]
        pos_in_group = elem2 - grp_starts[g2]
        dest = np.where(mask, left_rank, nleft[g2] + (pos_in_group - left_rank))
        if bool(fast.all()):
            if all_live and contiguous:
                shuffled = np.empty_like(perm_lvl)
                shuffled[grp_starts[g2] + dest] = perm_lvl
                perm[level_lo:level_hi] = shuffled
            else:
                source = perm[idx2]
                shuffled = np.empty_like(source)
                shuffled[grp_starts[g2] + dest] = source
                perm[idx2] = shuffled
        else:
            if idx2 is None:
                idx2 = np.arange(level_lo, level_hi, dtype=np.int64)
            dest_flat = grp_starts[g2] + dest
            sel = fast[g2]
            perm[idx2[dest_flat[sel]]] = perm[idx2[sel]]
        if ctx.counters is not None:
            moved = int(m2[fast].sum())
            ctx.counters.scalar_ops += moved
            ctx.counters.elements_moved += moved
        live_fast = live[fast]
        ok[live_fast] = True
        values[live_fast] = split_vals[fast]
        mids[live_fast] = s_start[live_fast] + nleft[fast]

    # Segments whose estimated value left one side empty (skewed estimate or
    # heavy duplication) take the scalar sorted-middle fallback; they are
    # rare, so a per-segment loop is fine.
    for j in np.flatnonzero(~fast):
        seg = int(live[j])
        mid, value, part_ok = _partition(
            points, perm, int(s_start[seg]), int(s_end[seg]),
            int(dims[seg]), float(split_vals[j]), ctx.counters,
        )
        ok[seg] = part_ok
        values[seg] = value
        mids[seg] = mid
    return dims, values, mids, ok


def _renumber_to_scalar_order(
    split_dim: np.ndarray,
    split_val: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    start: np.ndarray,
    count: np.ndarray,
    tp_first_root: int,
    tp_n_roots: int,
    tp_base: int,
) -> Tuple[np.ndarray, ...]:
    """Renumber level-order nodes into the scalar builder's allocation order.

    Phase-1 (breadth-first) ids already coincide; nodes allocated after the
    thread-parallel switch are renumbered into the per-subtree depth-first
    order the scalar builder produces, so both builders return byte-identical
    node arrays.
    """
    n_nodes = split_dim.size
    new_of_old = np.arange(n_nodes, dtype=np.int64)
    left_l = left.tolist()
    right_l = right.tolist()
    next_id = tp_base
    for root in range(tp_first_root, tp_first_root + tp_n_roots):
        stack = [root]
        while stack:
            node = stack.pop()
            child_left = left_l[node]
            if child_left < 0:
                continue
            child_right = right_l[node]
            new_of_old[child_left] = next_id
            new_of_old[child_right] = next_id + 1
            next_id += 2
            stack.append(child_right)
            stack.append(child_left)
    old_of_new = np.empty(n_nodes, dtype=np.int64)
    old_of_new[new_of_old] = np.arange(n_nodes, dtype=np.int64)

    def remap_children(arr: np.ndarray) -> np.ndarray:
        reordered = arr[old_of_new]
        safe = np.where(reordered >= 0, reordered, 0)
        return np.where(reordered >= 0, new_of_old[safe], LEAF)

    return (
        split_dim[old_of_new],
        split_val[old_of_new],
        remap_children(left),
        remap_children(right),
        start[old_of_new],
        count[old_of_new],
    )


def build_kdtree_scalar(
    points: np.ndarray,
    ids: np.ndarray | None = None,
    config: KDTreeConfig | None = None,
    threads: int = 1,
    rng: np.random.Generator | None = None,
) -> KDTree:
    """Reference per-node builder (one Python iteration per tree node).

    Semantically identical to :func:`build_kdtree`; kept as the slow but
    simple A/B baseline, mirroring ``batch_knn_scalar`` on the query side.
    """
    points, ids, config, rng, n = _coerce_inputs(points, ids, config, threads, rng)
    stats = TreeBuildStats(n_points=n)
    acc = _TreeAccumulator()
    perm = np.arange(n, dtype=np.int64)
    dp_ctx, tp_ctx = _split_contexts(config, rng, stats)

    if n == 0:
        root = acc.new_node()
        acc.set_leaf(root, 0, 0)
        return _finalise(points, ids, perm, acc.split_dim, acc.split_val,
                         acc.left, acc.right, acc.start, acc.count, config, stats)

    # ------------------------------------------------------------------
    # Phase 1: breadth-first "data parallel" levels.
    # ------------------------------------------------------------------
    root = acc.new_node()
    frontier: List[Tuple[int, int, int, int]] = [(root, 0, n, 0)]  # (node, start, end, depth)
    target_branches = max(threads * config.data_parallel_factor, 1)
    max_depth = 0
    while frontier:
        splittable = [entry for entry in frontier if entry[2] - entry[1] > config.bucket_size]
        if len(frontier) >= target_branches or not splittable:
            break
        stats.data_parallel_levels += 1
        next_frontier: List[Tuple[int, int, int, int]] = []
        for node, start, end, depth in frontier:
            count = end - start
            max_depth = max(max_depth, depth)
            if count <= config.bucket_size:
                acc.set_leaf(node, start, count)
                continue
            mid, value, dim, ok = _split_node(points, perm, start, end, depth, config, dp_ctx)
            if not ok:
                acc.set_leaf(node, start, count)
                stats.forced_leaves += 1
                continue
            left = acc.new_node()
            right = acc.new_node()
            acc.set_internal(node, dim, value, left, right, start, count)
            next_frontier.append((left, start, mid, depth + 1))
            next_frontier.append((right, mid, end, depth + 1))
        frontier = next_frontier

    # ------------------------------------------------------------------
    # Phase 2: depth-first "thread parallel" subtrees.
    # ------------------------------------------------------------------
    stats.thread_parallel_subtrees = len(frontier)
    for subtree in frontier:
        stack: List[Tuple[int, int, int, int]] = [subtree]
        while stack:
            node, start, end, depth = stack.pop()
            count = end - start
            max_depth = max(max_depth, depth)
            if count <= config.bucket_size:
                acc.set_leaf(node, start, count)
                continue
            mid, value, dim, ok = _split_node(points, perm, start, end, depth, config, tp_ctx)
            if not ok:
                acc.set_leaf(node, start, count)
                stats.forced_leaves += 1
                continue
            left = acc.new_node()
            right = acc.new_node()
            acc.set_internal(node, dim, value, left, right, start, count)
            # Depth-first: process the left child next for cache locality.
            stack.append((right, mid, end, depth + 1))
            stack.append((left, start, mid, depth + 1))

    stats.max_depth = max_depth
    return _finalise(points, ids, perm, acc.split_dim, acc.split_val,
                     acc.left, acc.right, acc.start, acc.count, config, stats)


def _finalise(
    points: np.ndarray,
    ids: np.ndarray,
    perm: np.ndarray,
    split_dim: np.ndarray,
    split_val: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    start: np.ndarray,
    count: np.ndarray,
    config: KDTreeConfig,
    stats: TreeBuildStats,
) -> KDTree:
    """Phase 3: SIMD packing — shuffle points into leaf order and assemble.

    This is the single point where ``stats.n_nodes`` / ``stats.n_leaves``
    are set, so they cannot disagree with the node arrays.
    """
    pack_counters = stats.phase(PHASE_SIMD_PACKING)
    packed_points = points[perm]
    packed_ids = ids[perm]
    # Reading and writing every coordinate once each.
    pack_counters.bytes_streamed += int(packed_points.nbytes) * 2 + int(packed_ids.nbytes) * 2
    pack_counters.elements_moved += int(perm.size)
    split_dim = np.asarray(split_dim, dtype=np.int32)
    stats.n_nodes = int(split_dim.shape[0])
    stats.n_leaves = int(np.count_nonzero(split_dim == LEAF))
    return KDTree(
        points=packed_points,
        ids=packed_ids,
        split_dim=split_dim,
        split_val=np.asarray(split_val, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        start=np.asarray(start, dtype=np.int64),
        count=np.asarray(count, dtype=np.int64),
        config=config,
        stats=stats,
    )
