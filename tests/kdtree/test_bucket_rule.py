"""The default leaf size follows the dimensionality, and only at build time.

``KDTreeConfig.bucket_size`` defaults to ``None``: a build resolves it to 32
up to 3-D and 128 from 4-D on, and stores the int in ``tree.config``, so
snapshots, re-packs and the invariant checker only ever see an int.  An
explicit int always wins, and the paper's configurations pin 32.
"""

import numpy as np
import pytest

from repro.core.config import PandaConfig
from repro.datasets.dayabay import dayabay_records
from repro.kdtree.build import build_kdtree, build_kdtree_scalar
from repro.kdtree.query import _batch_knn_lockstep, batch_knn_scalar, brute_force_knn
from repro.kdtree.repack import repack_kdtree
from repro.kdtree.serialize import load_kdtree, save_kdtree
from repro.kdtree.tree import KDTreeConfig
from repro.kdtree.validate import check_tree_invariants

BUILDERS = [build_kdtree, build_kdtree_scalar]


def _mixture(dims: int, n: int, seed: int = 0) -> np.ndarray:
    """Gaussian clusters in the unit cube over a 10% uniform background."""
    rng = np.random.default_rng(seed)
    centres = rng.random((16, dims))
    n_background = n // 10
    labels = rng.integers(0, 16, size=n - n_background)
    clustered = centres[labels] + rng.normal(scale=0.02, size=(labels.size, dims))
    return np.concatenate([clustered, rng.random((n_background, dims))])


@pytest.fixture(scope="module")
def tree_10d():
    points = _mixture(10, 6_000)
    return points, build_kdtree(points)


class TestRule:
    def test_default_is_unresolved_and_paper_configs_pin_32(self):
        assert KDTreeConfig().bucket_size is None
        assert KDTreeConfig.panda().bucket_size == 32
        assert PandaConfig.paper_defaults().local.bucket_size == 32

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("dims, want", [(1, 32), (3, 32), (4, 128), (10, 128)])
    def test_resolved_by_dims(self, builder, dims, want):
        tree = builder(_mixture(dims, 1_000))
        assert type(tree.config.bucket_size) is int
        assert tree.config.bucket_size == want
        assert tree.leaf_sizes().max() <= want
        check_tree_invariants(tree, strict_bucket_size=True)

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("dims, explicit", [(3, 128), (10, 32), (10, 7)])
    def test_explicit_int_wins(self, builder, dims, explicit):
        tree = builder(_mixture(dims, 1_000), config=KDTreeConfig(bucket_size=explicit))
        assert tree.config.bucket_size == explicit
        check_tree_invariants(tree, strict_bucket_size=True)

    def test_rule_only_changes_the_bucket(self):
        config = KDTreeConfig(split_value_strategy="exact_median", seed=7)
        tree = build_kdtree(_mixture(10, 1_000), config=config)
        assert tree.config == KDTreeConfig(
            bucket_size=128, split_value_strategy="exact_median", seed=7
        )

    def test_empty_build_resolves_too(self):
        assert build_kdtree(np.empty((0, 10))).config.bucket_size == 128
        assert build_kdtree(np.empty((0, 2))).config.bucket_size == 32


class TestSnapshots:
    def test_round_trip_keeps_the_resolved_size(self, tree_10d, tmp_path):
        points, tree = tree_10d
        restored = load_kdtree(save_kdtree(tree, tmp_path / "snap"))
        assert restored.config.bucket_size == 128
        assert restored.config == tree.config
        d0, i0, s0 = batch_knn_scalar(tree, points[:50], 8)
        d1, i1, s1 = batch_knn_scalar(restored, points[:50], 8)
        assert d0.tobytes() == d1.tobytes() and i0.tobytes() == i1.tobytes() and s0 == s1

    def test_a_snapshot_stored_at_32_restores_at_32(self, tree_10d, tmp_path):
        # The leaf size every 10-D tree was built with before the rule.
        points, _ = tree_10d
        old = build_kdtree(points, config=KDTreeConfig(bucket_size=32))
        restored = load_kdtree(save_kdtree(old, tmp_path / "old"))
        assert restored.config.bucket_size == 32
        check_tree_invariants(restored, strict_bucket_size=True)
        queries = _mixture(10, 300, seed=1)
        for engine in (batch_knn_scalar, _batch_knn_lockstep):
            d0, i0, s0 = engine(old, queries, 8)
            d1, i1, s1 = engine(restored, queries, 8)
            assert d0.tobytes() == d1.tobytes() and i0.tobytes() == i1.tobytes() and s0 == s1
        # A fold of the restored tree keeps grafting at the stored size.
        keep = np.ones(restored.n_points, dtype=bool)
        grown = repack_kdtree(restored, keep, points[:200] + 1e-9, np.arange(200) + 10**6)
        assert grown.config.bucket_size == 32
        check_tree_invariants(grown, strict_bucket_size=True)


def test_repack_grafts_at_the_resolved_size(tree_10d):
    points, tree = tree_10d
    # Nudged copies of one leaf's points overflow that leaf, which is grafted.
    leaf = int(tree.leaf_nodes()[np.argmax(tree.leaf_sizes())])
    s, c = int(tree.start[leaf]), int(tree.count[leaf])
    rng = np.random.default_rng(6)
    extra = tree.points[rng.integers(s, s + c, 300)] + 1e-9 * rng.normal(size=(300, 10))
    keep = np.ones(tree.n_points, dtype=bool)
    grown = repack_kdtree(tree, keep, extra, np.arange(300) + 10**6)
    assert grown.config.bucket_size == 128
    assert grown.stats.grafted_leaves >= 1
    check_tree_invariants(grown, strict_bucket_size=True)


@pytest.mark.parametrize("engine", [batch_knn_scalar, _batch_knn_lockstep])
@pytest.mark.parametrize("data", ["dayabay", "mixture"])
def test_rule_sized_10d_trees_match_brute_force(engine, data):
    if data == "dayabay":
        # Co-located near-duplicates around each mode centre.
        points, _ = dayabay_records(5_000, seed=3)
    else:
        points = _mixture(10, 5_000, seed=3)
    rng = np.random.default_rng(4)
    queries = np.concatenate(
        [points[rng.integers(0, points.shape[0], 150)], _mixture(10, 150, seed=5)]
    )
    tree = build_kdtree(points)
    assert tree.config.bucket_size == 128
    ids = np.arange(points.shape[0])
    for k in (1, 8, 40):
        d, i, stats = engine(tree, queries, k)
        want_d, want_i = brute_force_knn(points, ids, queries, k + 1)
        assert np.array_equal(d, want_d[:, :k])
        # Ids agree wherever the distance is not tied with a neighbour's
        # (the (k+1)-th included: a tie there may pick either point).
        untied = np.ones_like(want_d, dtype=bool)
        untied[:, 1:] &= want_d[:, 1:] != want_d[:, :-1]
        untied[:, :-1] &= want_d[:, :-1] != want_d[:, 1:]
        untied = untied[:, :k]
        assert np.array_equal(i[untied], want_i[:, :k][untied])
        assert stats.queries == queries.shape[0]
