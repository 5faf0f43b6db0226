"""Tests for the global kd-tree structure and its lookups."""

import numpy as np
import pytest

from repro.core.global_tree import LEAF, GlobalTree, GlobalTreeNode


@pytest.fixture()
def two_rank_tree():
    # Split on dimension 0 at 0.5: rank 0 owns x <= 0.5, rank 1 owns x > 0.5.
    nodes = [
        GlobalTreeNode(split_dim=0, split_val=0.5, left=1, right=2),
        GlobalTreeNode(rank=0),
        GlobalTreeNode(rank=1),
    ]
    return GlobalTree.from_nodes(nodes, n_ranks=2, dims=3)


@pytest.fixture()
def four_rank_tree():
    # Two levels: dim 0 at 0.5, then dim 1 at 0.5 on both sides.
    nodes = [
        GlobalTreeNode(split_dim=0, split_val=0.5, left=1, right=2),
        GlobalTreeNode(split_dim=1, split_val=0.5, left=3, right=4),
        GlobalTreeNode(split_dim=1, split_val=0.5, left=5, right=6),
        GlobalTreeNode(rank=0),
        GlobalTreeNode(rank=1),
        GlobalTreeNode(rank=2),
        GlobalTreeNode(rank=3),
    ]
    return GlobalTree.from_nodes(nodes, n_ranks=4, dims=2)


class TestConstruction:
    def test_single_rank_tree(self):
        tree = GlobalTree.single_rank(dims=3)
        assert tree.n_ranks == 1
        assert tree.depth() == 0
        assert np.all(np.isinf(tree.box_lo))
        assert np.all(np.isinf(tree.box_hi))

    def test_two_rank_boxes(self, two_rank_tree):
        assert two_rank_tree.n_ranks == 2
        assert two_rank_tree.box_hi[0, 0] == 0.5
        assert two_rank_tree.box_lo[1, 0] == 0.5
        assert np.isinf(two_rank_tree.box_lo[0, 0])

    def test_depth(self, four_rank_tree):
        assert four_rank_tree.depth() == 2

    def test_nbytes_positive(self, four_rank_tree):
        assert four_rank_tree.nbytes() > 0


class TestOwnerLookup:
    def test_owner_of_respects_split(self, two_rank_tree):
        queries = np.array([[0.2, 0.0, 0.0], [0.9, 0.0, 0.0], [0.5, 1.0, 1.0]])
        owners = two_rank_tree.owner_of(queries)
        # Points exactly on the plane go left (<= rule).
        assert list(owners) == [0, 1, 0]

    def test_owner_of_four_ranks(self, four_rank_tree):
        queries = np.array([
            [0.25, 0.25],  # left-bottom  -> rank 0
            [0.25, 0.75],  # left-top     -> rank 1
            [0.75, 0.25],  # right-bottom -> rank 2
            [0.75, 0.75],  # right-top    -> rank 3
        ])
        assert list(four_rank_tree.owner_of(queries)) == [0, 1, 2, 3]

    def test_owner_of_single_query(self, two_rank_tree):
        owners = two_rank_tree.owner_of(np.array([0.9, 0.0, 0.0]))
        assert owners.shape == (1,)
        assert owners[0] == 1


class TestBoxDistances:
    def test_distance_zero_inside_own_box(self, four_rank_tree):
        query = np.array([0.25, 0.25])
        dist_sq = four_rank_tree.box_distance_sq(query)
        assert dist_sq[0] == pytest.approx(0.0)
        assert dist_sq[3] > 0.0

    def test_ranks_within_small_radius_only_owner(self, four_rank_tree):
        query = np.array([0.25, 0.25])
        ranks = four_rank_tree.ranks_within(query, radius=0.01, exclude=0)
        assert ranks.size == 0

    def test_ranks_within_large_radius_all(self, four_rank_tree):
        query = np.array([0.25, 0.25])
        ranks = four_rank_tree.ranks_within(query, radius=10.0, exclude=0)
        assert set(ranks.tolist()) == {1, 2, 3}

    def test_ranks_within_infinite_radius(self, four_rank_tree):
        ranks = four_rank_tree.ranks_within(np.array([0.1, 0.1]), radius=np.inf, exclude=2)
        assert set(ranks.tolist()) == {0, 1, 3}

    def test_ranks_within_boundary_query(self, four_rank_tree):
        # Query near the boundary should include the adjacent rank.
        query = np.array([0.49, 0.25])
        ranks = four_rank_tree.ranks_within(query, radius=0.05, exclude=0)
        assert 2 in ranks.tolist()
        assert 3 not in ranks.tolist()

    def test_ranks_within_flat_matches_scalar(self, four_rank_tree):
        rng = np.random.default_rng(0)
        queries = rng.random((20, 2))
        radii = rng.random(20) * 0.3
        owners = four_rank_tree.owner_of(queries)
        rows, ranks = four_rank_tree.ranks_within_flat(queries, radii, owners)
        # Row-major: rows ascending, ranks ascending within a row.
        assert np.array_equal(np.lexsort((ranks, rows)), np.arange(rows.size))
        for qi in range(20):
            scalar = four_rank_tree.ranks_within(queries[qi], radii[qi], exclude=int(owners[qi]))
            assert ranks[rows == qi].tolist() == sorted(scalar.tolist())

    def test_ranks_within_flat_validates_lengths(self, four_rank_tree):
        with pytest.raises(ValueError):
            four_rank_tree.ranks_within_flat(np.zeros((3, 2)), np.zeros(2), np.zeros(3))

    def test_infinite_radius_in_batch(self, four_rank_tree):
        queries = np.array([[0.25, 0.25]])
        rows, ranks = four_rank_tree.ranks_within_flat(queries, np.array([np.inf]), np.array([0]))
        assert rows.tolist() == [0, 0, 0]
        assert ranks.tolist() == [1, 2, 3]


class TestLeafSentinel:
    def test_leaf_constant(self):
        assert LEAF == -1
