"""Re-packing a tree under its split planes (``repack_kdtree``).

A chain of re-packs must keep every structural invariant the builder
guarantees, hold exactly the live set, and answer bit-equal to brute force,
whatever the deletions and inserts do to the leaves: empty them, leave one
point, overflow one, or land exactly on a split plane.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree.build import build_kdtree
from repro.kdtree.query import batch_knn, brute_force_knn
from repro.kdtree.repack import repack_kdtree
from repro.kdtree.tree import KDTreeConfig
from repro.kdtree.validate import check_tree_invariants

DELETES = ["none", "random", "empty_leaf", "leave_one"]
INSERTS = ["none", "random", "one_leaf", "on_plane"]


def _cloud(rng, n, dims, grid):
    if grid:  # duplicate-heavy: a coarse integer grid
        return rng.integers(0, 3, size=(n, dims)).astype(np.float64)
    return rng.normal(size=(n, dims))


def _random_leaf(rng, tree):
    leaves = tree.leaf_nodes()
    leaves = leaves[tree.count[leaves] > 0]
    node = int(rng.choice(leaves))
    s, c = int(tree.start[node]), int(tree.count[node])
    return np.arange(s, s + c)


def _doomed_rows(rng, tree, mode):
    """Packed rows to drop."""
    if tree.n_points == 0 or mode == "none":
        return np.empty(0, dtype=np.int64)
    if mode == "random":
        return rng.choice(tree.n_points, size=rng.integers(1, tree.n_points + 1), replace=False)
    rows = _random_leaf(rng, tree)
    return rows if mode == "empty_leaf" else rows[1:]


def _new_points(rng, tree, mode, n, dims, grid):
    if mode == "none":
        return np.empty((0, dims))
    if mode == "random" or tree.n_points == 0:
        return _cloud(rng, n, dims, grid)
    if mode == "one_leaf":
        # Copies of one leaf's points, nudged inside its extent: they all
        # descend to that leaf, which overflows.
        rows = _random_leaf(rng, tree)
        base = tree.points[rng.choice(rows, size=n)]
        return base if grid else base + 1e-9 * rng.normal(size=base.shape)
    inner = np.flatnonzero(tree.split_dim >= 0)
    if inner.size == 0:
        return _cloud(rng, n, dims, grid)
    nodes = rng.choice(inner, size=n)
    rows = tree.start[nodes] + rng.integers(0, tree.count[nodes])
    points = tree.points[rows].copy()
    points[np.arange(n), tree.split_dim[nodes]] = tree.split_val[nodes]
    return points


def _check(tree, model, rng, dims, bucket):
    check_tree_invariants(tree)
    assert tree.config.bucket_size == bucket
    assert tree.stats.max_depth == tree.depth()
    ids = np.array(sorted(model), dtype=np.int64)
    assert np.array_equal(np.sort(tree.ids), ids)
    if ids.size == 0:
        return
    order = np.argsort(tree.ids)
    assert np.array_equal(tree.points[order], np.stack([model[i] for i in ids.tolist()]))
    live = tree.points[order]
    queries = np.concatenate([live[rng.integers(0, ids.size, 4)], rng.normal(size=(4, dims))])
    for k in (1, 5):
        d, i, _ = batch_knn(tree, queries, k)
        ref_d, _ = brute_force_knn(live, ids, queries, k)
        assert np.array_equal(d, ref_d)
        found = i[i >= 0]
        assert np.isin(found, ids).all()


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([1, 3, 10]),
    bucket=st.integers(2, 8),
    n=st.integers(1, 150),
    grid=st.booleans(),
    rounds=st.lists(
        st.tuples(st.sampled_from(DELETES), st.sampled_from(INSERTS), st.integers(1, 40)),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**16),
)
def test_repack_chain_keeps_invariants_live_set_and_exact_answers(
    dims, bucket, n, grid, rounds, seed
):
    rng = np.random.default_rng(seed)
    points = _cloud(rng, n, dims, grid)
    tree = build_kdtree(points, config=KDTreeConfig(bucket_size=bucket))
    model = dict(enumerate(points))
    next_id = n
    for delete_mode, insert_mode, n_new in rounds:
        doomed = _doomed_rows(rng, tree, delete_mode)
        keep = np.ones(tree.n_points, dtype=bool)
        keep[doomed] = False
        fresh = _new_points(rng, tree, insert_mode, n_new, dims, grid)
        fresh_ids = np.arange(next_id, next_id + fresh.shape[0])
        next_id += fresh.shape[0]
        for point_id in tree.ids[doomed].tolist():
            del model[point_id]
        model.update(zip(fresh_ids.tolist(), fresh))
        tree = repack_kdtree(tree, keep, fresh, fresh_ids)
        _check(tree, model, rng, dims, bucket)


def _grid_tree():
    # 64 points on an 8 x 8 grid, bucket 4: every leaf holds 4 points.
    xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
    points = np.column_stack([xs.ravel(), ys.ravel()])
    return points, build_kdtree(points, config=KDTreeConfig(bucket_size=4))


def test_an_overflowing_leaf_is_grafted_as_a_subtree():
    points, tree = _grid_tree()
    leaf = int(tree.leaf_nodes()[0])
    s, c = int(tree.start[leaf]), int(tree.count[leaf])
    # Ten distinct convex combinations of the leaf's points: its cell is
    # convex, so every one descends to this leaf, which overflows.
    weights = np.random.default_rng(0).dirichlet(np.ones(c), size=10)
    near = weights @ tree.points[s : s + c]
    repacked = repack_kdtree(tree, np.ones(64, dtype=bool), near, np.arange(64, 74))
    check_tree_invariants(repacked, strict_bucket_size=True)
    assert repacked.stats.grafted_leaves == 1
    assert repacked.stats.collapsed_nodes == 0
    assert repacked.n_nodes > tree.n_nodes
    assert repacked.stats.max_depth == repacked.depth() > tree.stats.max_depth
    live = np.concatenate([points, near])
    d, _, _ = batch_knn(repacked, live, 3)
    ref, _ = brute_force_knn(live, np.arange(74), live, 3)
    assert np.array_equal(d, ref)


def test_an_emptied_leaf_collapses_its_parent():
    points, tree = _grid_tree()
    leaf = int(tree.leaf_nodes()[-1])
    s, c = int(tree.start[leaf]), int(tree.count[leaf])
    keep = np.ones(64, dtype=bool)
    keep[s : s + c] = False
    repacked = repack_kdtree(tree, keep, np.empty((0, 2)), np.empty(0, dtype=np.int64))
    check_tree_invariants(repacked, strict_bucket_size=True)
    assert repacked.stats.collapsed_nodes == 1
    assert repacked.stats.grafted_leaves == 0
    assert repacked.n_nodes == tree.n_nodes - 2
    assert repacked.n_points == 64 - c


def test_an_emptied_root_side_hands_the_root_to_the_other_child():
    points, tree = _grid_tree()
    left = int(tree.left[0])
    s, c = int(tree.start[left]), int(tree.count[left])
    keep = np.ones(64, dtype=bool)
    keep[s : s + c] = False
    repacked = repack_kdtree(tree, keep, np.empty((0, 2)), np.empty(0, dtype=np.int64))
    check_tree_invariants(repacked)
    right = int(tree.right[0])
    assert repacked.split_dim[0] == tree.split_dim[right]
    assert repacked.split_val[0] == tree.split_val[right]
    assert repacked.n_points == 64 - c


def test_dropping_everything_leaves_the_empty_tree():
    _, tree = _grid_tree()
    empty = repack_kdtree(tree, np.zeros(64, dtype=bool), np.empty((0, 2)), np.empty(0))
    check_tree_invariants(empty)
    assert empty.n_points == 0 and empty.n_nodes == 1
    refilled = repack_kdtree(empty, np.zeros(0, dtype=bool), np.ones((9, 2)), np.arange(9))
    check_tree_invariants(refilled)  # nine duplicates: one forced leaf
    assert refilled.n_points == 9 and refilled.stats.forced_leaves == 1


def test_rejects_mismatched_or_non_finite_input():
    _, tree = _grid_tree()
    with pytest.raises(ValueError, match="keep"):
        repack_kdtree(tree, np.ones(3, dtype=bool), np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="2-D"):
        repack_kdtree(tree, np.ones(64, dtype=bool), np.zeros((2, 3)), [64, 65])
    with pytest.raises(ValueError, match="finite"):
        repack_kdtree(tree, np.ones(64, dtype=bool), [[np.nan, 0.0]], [64])
