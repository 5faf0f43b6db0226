"""Re-pack a built kd-tree around a changed point set, keeping its split planes.

A streaming index rebuilds over the old tree's points minus a few deletions
plus a few buffered inserts.  Every split plane of the old tree still
partitions that set validly (a plane only has to separate what lies under
it), so :func:`repack_kdtree` keeps them all and redoes only the packing:

* the dropped rows leave, and each new point descends the existing planes
  (``<= split_val`` goes left, the builder's convention) in one vectorised
  descent over the whole batch;
* one stable sort by leaf re-packs the points, kept rows ahead of new ones
  within a leaf, and every node's slice follows from the old leaf
  boundaries by a cumsum and ``searchsorted``;
* structural edits happen in the same pass: a leaf pushed past
  ``bucket_size`` by inserts is rebuilt by :func:`build_kdtree` over its own
  points and grafted in place, and an internal node left with an empty
  child is replaced by its non-empty child (node 0 stays the root).

Queries stay exact: they prune against the planes, which all still hold.
"""

from __future__ import annotations

import numpy as np

from repro.kdtree.build import build_kdtree
from repro.kdtree.tree import LEAF, KDTree, TreeBuildStats


def repack_kdtree(
    tree: KDTree, keep: np.ndarray, points: np.ndarray, ids: np.ndarray
) -> KDTree:
    """A tree over ``tree``'s rows where ``keep`` holds, plus ``points``.

    ``keep`` is a boolean mask over ``tree``'s packed rows (``tree.points``
    order); ``points`` / ``ids`` are the ``(m, dims)`` points to add.  The
    result passes :func:`~repro.kdtree.validate.check_tree_invariants`;
    its stats record how many leaves were grafted (``grafted_leaves``) and
    how many nodes collapsed away (``collapsed_nodes``).
    """
    keep = np.asarray(keep, dtype=bool)
    dims = int(tree.points.shape[1])
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        points = points.reshape(0, dims)
    ids = np.asarray(ids, dtype=np.int64)
    if keep.shape != (tree.n_points,):
        raise ValueError(f"keep has shape {keep.shape}, tree holds {tree.n_points} points")
    if points.ndim != 2 or points.shape[1] != dims:
        raise ValueError(f"points have shape {points.shape}, tree is {dims}-D")
    if ids.shape != (points.shape[0],):
        raise ValueError(f"ids length {ids.shape[0]} does not match points {points.shape[0]}")
    if not np.isfinite(points).all():
        raise ValueError("points must have finite coordinates (found nan or inf)")
    if not keep.any() and points.shape[0] == 0:
        return build_kdtree(np.empty((0, dims)), config=tree.config)

    split_dim, split_val = tree.split_dim, tree.split_val
    left, right = tree.left, tree.right
    n_nodes = tree.n_nodes

    # Leaves in packed order: the builder's leaves tile [0, n) by start.
    leaves = tree.leaf_nodes()
    leaves = leaves[np.argsort(tree.start[leaves], kind="stable")]
    slot_of = np.full(n_nodes, -1, dtype=np.int64)
    slot_of[leaves] = np.arange(leaves.size)
    kept_slot = np.repeat(np.arange(leaves.size), tree.count[leaves])[keep]

    # One descent of the whole insert batch down the kept planes.
    node = np.zeros(points.shape[0], dtype=np.int64)
    active = np.arange(points.shape[0])
    while active.size:
        at = node[active]
        dim = split_dim[at]
        inner = dim >= 0
        active, at, dim = active[inner], at[inner], dim[inner]
        go_left = points[active, dim] <= split_val[at]
        node[active] = np.where(go_left, left[at], right[at])
    new_slot = slot_of[node]

    # Re-pack by leaf; the stable sort keeps kept rows first in each leaf.
    slot = np.concatenate([kept_slot, new_slot])
    order = np.argsort(slot, kind="stable")
    packed_points = np.take(np.concatenate([tree.points[keep], points]), order, axis=0)
    packed_ids = np.take(np.concatenate([tree.ids[keep], ids]), order)
    inserted = np.bincount(new_slot, minlength=leaves.size)
    bounds = np.zeros(leaves.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot, minlength=leaves.size), out=bounds[1:])

    # Every node covers a run of leaves: [lo, hi) in slot order.
    is_leaf = split_dim == LEAF
    leaf_starts = tree.start[leaves]
    lo = np.where(is_leaf, slot_of, np.searchsorted(leaf_starts, tree.start))
    hi = np.where(is_leaf, slot_of + 1, np.searchsorted(leaf_starts, tree.start + tree.count))
    start = bounds[lo]
    count = bounds[hi] - start

    # Collapse: a node with an empty child stands for its other child.
    nxt = np.arange(n_nodes)
    inner = np.flatnonzero(~is_leaf)
    empty_left = count[left[inner]] == 0
    empty_right = count[right[inner]] == 0
    nxt[inner[empty_left]] = right[inner[empty_left]]
    nxt[inner[empty_right & ~empty_left]] = left[inner[empty_right & ~empty_left]]
    rep = nxt
    while True:
        jumped = rep[rep]
        if np.array_equal(jumped, rep):
            break
        rep = jumped
    alive = (count > 0) & (nxt == np.arange(n_nodes))
    root = int(rep[0])
    survivors = np.concatenate(([root], np.flatnonzero(alive & (np.arange(n_nodes) != root))))
    new_of = np.full(n_nodes, LEAF, dtype=np.int64)
    new_of[survivors] = np.arange(survivors.size)
    child_ok = ~is_leaf[survivors]

    def children(side: np.ndarray) -> np.ndarray:
        return np.where(child_ok, new_of[rep[np.where(child_ok, side[survivors], 0)]], LEAF)

    out_dim = [split_dim[survivors]]
    out_val = [split_val[survivors]]
    out_left = [children(left)]
    out_right = [children(right)]
    out_start = [start[survivors]]
    out_count = [count[survivors]]

    # Graft: a leaf that inserts pushed past the bucket gets its own subtree.
    bucket = tree.config.bucket_size
    stats = TreeBuildStats(
        data_parallel_levels=tree.stats.data_parallel_levels,
        thread_parallel_subtrees=tree.stats.thread_parallel_subtrees,
        collapsed_nodes=int(np.count_nonzero((count > 0) & ~alive)),
    )
    tree.stats.merge_into(stats.phase_counters)
    full = survivors[is_leaf[survivors]]
    full = full[(count[full] > bucket) & (inserted[slot_of[full]] > 0)]
    n_out = int(survivors.size)
    for old in full.tolist():
        s, c = int(start[old]), int(count[old])
        sub = build_kdtree(packed_points[s : s + c], ids=packed_ids[s : s + c], config=tree.config)
        if sub.n_nodes == 1:
            continue  # identical points: it stays a forced leaf
        packed_points[s : s + c] = sub.points
        packed_ids[s : s + c] = sub.ids
        # The subtree's root takes the leaf's place; the rest go at the end.
        head = int(new_of[old])
        where = np.concatenate(([head], n_out + np.arange(sub.n_nodes - 1)))
        sub_left = np.where(sub.left >= 0, where[sub.left], LEAF)
        sub_right = np.where(sub.right >= 0, where[sub.right], LEAF)
        for parts, column in zip(
            (out_dim, out_val, out_left, out_right, out_start, out_count),
            (sub.split_dim, sub.split_val, sub_left, sub_right, sub.start + s, sub.count),
        ):
            parts[0][head] = column[0]
            parts.append(column[1:])
        n_out += sub.n_nodes - 1
        stats.grafted_leaves += 1
        sub.stats.merge_into(stats.phase_counters)

    out = [np.concatenate(parts) for parts in (out_dim, out_val, out_left, out_right, out_start, out_count)]
    split_dim_new = out[0].astype(np.int32)
    stats.n_points = int(packed_ids.size)
    stats.n_nodes = int(split_dim_new.size)
    stats.n_leaves = int(np.count_nonzero(split_dim_new == LEAF))
    stats.max_depth = _max_depth(out[2], out[3])
    stats.forced_leaves = int(np.count_nonzero((split_dim_new == LEAF) & (out[5] > bucket)))
    return KDTree(
        points=packed_points,
        ids=packed_ids,
        split_dim=split_dim_new,
        split_val=out[1],
        left=out[2],
        right=out[3],
        start=out[4],
        count=out[5],
        config=tree.config,
        stats=stats,
    )


def _max_depth(left: np.ndarray, right: np.ndarray) -> int:
    """Depth of the deepest leaf (root at 0), one level per iteration."""
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while True:
        frontier = frontier[left[frontier] >= 0]
        if frontier.size == 0:
            return depth
        frontier = np.concatenate([left[frontier], right[frontier]])
        depth += 1
