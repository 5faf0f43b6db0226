"""Tests for the Cluster / Rank simulation state."""

import numpy as np
import pytest

from repro.cluster.machine import MachineSpec
from repro.cluster.simulator import Cluster, Rank


class TestRank:
    def test_set_points_defaults_ids(self):
        rank = Rank(rank=0)
        rank.set_points(np.zeros((5, 3)))
        assert rank.n_points == 5
        assert np.array_equal(rank.ids, np.arange(5))

    def test_set_points_validates_ids_length(self):
        rank = Rank(rank=0)
        with pytest.raises(ValueError):
            rank.set_points(np.zeros((5, 3)), ids=np.arange(4))

    def test_set_points_requires_2d(self):
        rank = Rank(rank=0)
        with pytest.raises(ValueError):
            rank.set_points(np.zeros(5))


class TestCluster:
    def test_requires_positive_rank_count(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_default_threads_match_machine_cores(self):
        cluster = Cluster(2, machine=MachineSpec.edison())
        assert cluster.threads_per_rank == 24

    def test_threads_capped_at_smt_limit(self):
        cluster = Cluster(2, machine=MachineSpec.edison(), threads_per_rank=1000)
        assert cluster.threads_per_rank == 48

    def test_total_cores(self):
        cluster = Cluster(4, machine=MachineSpec.edison(), threads_per_rank=24)
        assert cluster.total_cores == 96

    def test_distribute_block_balanced(self, small_points):
        cluster = Cluster(4)
        cluster.distribute_block(small_points)
        counts = cluster.points_per_rank()
        assert sum(counts) == small_points.shape[0]
        assert max(counts) - min(counts) <= 1

    def test_distribute_block_preserves_content(self, small_points):
        cluster = Cluster(3)
        cluster.distribute_block(small_points)
        gathered = cluster.gather_points()
        assert gathered.shape == small_points.shape
        assert np.allclose(np.sort(gathered, axis=0), np.sort(small_points, axis=0))

    def test_distribute_round_robin(self, small_points):
        cluster = Cluster(4)
        cluster.distribute_round_robin(small_points)
        assert sum(cluster.points_per_rank()) == small_points.shape[0]
        # Rank 0 holds rows 0, 4, 8, ...
        assert np.allclose(cluster.ranks[0].points[0], small_points[0])
        assert np.allclose(cluster.ranks[0].points[1], small_points[4])

    @pytest.mark.parametrize("method", ["distribute_block", "distribute_round_robin"])
    def test_distribute_checks_ids_against_all_points(self, method):
        cluster = Cluster(4)
        with pytest.raises(ValueError, match="ids length 12 does not match number of points 10"):
            getattr(cluster, method)(np.zeros((10, 3)), np.arange(12))

    def test_distribute_requires_2d(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError):
            cluster.distribute_block(np.zeros(10))

    def test_gather_ids(self, small_points):
        cluster = Cluster(4)
        cluster.distribute_block(small_points)
        ids = np.sort(cluster.gather_ids())
        assert np.array_equal(ids, np.arange(small_points.shape[0]))

    def test_load_imbalance_balanced(self, small_points):
        cluster = Cluster(4)
        cluster.distribute_block(small_points)
        assert cluster.load_imbalance() == pytest.approx(1.0, abs=0.01)

    def test_load_imbalance_empty_cluster(self):
        cluster = Cluster(2)
        assert cluster.load_imbalance() == 1.0

    def test_map_ranks_preserves_order(self, small_points):
        cluster = Cluster(3)
        cluster.distribute_block(small_points)
        result = cluster.map_ranks(lambda r: r.rank)
        assert result == [0, 1, 2]

    def test_counters_accessor(self):
        cluster = Cluster(2)
        counters = cluster.counters("some_phase")
        assert len(counters) == 2

    def test_total_points(self, small_points):
        cluster = Cluster(5)
        cluster.distribute_block(small_points)
        assert cluster.total_points() == small_points.shape[0]


METHODS = ["distribute_block", "distribute_round_robin"]


class TestDistributionEdgeCases:
    """Both placements cover every point exactly once, keep each point with
    its id, and balance rank sizes to within one point, whatever the size
    of the point set relative to the rank count."""

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_point_set_leaves_every_rank_empty(self, method):
        cluster = Cluster(4)
        getattr(cluster, method)(np.empty((0, 3)))
        assert cluster.points_per_rank() == [0, 0, 0, 0]
        assert [rank.points.shape for rank in cluster.ranks] == [(0, 3)] * 4
        assert all(rank.ids.dtype == np.int64 for rank in cluster.ranks)

    @pytest.mark.parametrize("method", METHODS)
    def test_fewer_points_than_ranks(self, method):
        cluster = Cluster(8)
        points = np.arange(9.0).reshape(3, 3)
        getattr(cluster, method)(points)
        assert sorted(cluster.points_per_rank()) == [0] * 5 + [1] * 3
        assert np.array_equal(np.sort(cluster.gather_ids()), [0, 1, 2])

    @pytest.mark.parametrize("method", METHODS)
    def test_single_rank_gets_everything_in_order(self, method, small_points):
        cluster = Cluster(1)
        getattr(cluster, method)(small_points)
        assert np.array_equal(cluster.ranks[0].points, small_points)
        assert np.array_equal(cluster.ranks[0].ids, np.arange(small_points.shape[0]))

    @pytest.mark.parametrize("n_points", [7, 1001])
    @pytest.mark.parametrize("method", METHODS)
    def test_rank_sizes_differ_by_at_most_one(self, method, n_points):
        cluster = Cluster(6)
        getattr(cluster, method)(np.zeros((n_points, 2)))
        counts = cluster.points_per_rank()
        assert sum(counts) == n_points
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_ids_travel_with_their_points(self, method):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(101, 3))
        ids = rng.permutation(10_000)[:101]
        cluster = Cluster(5)
        getattr(cluster, method)(points, ids)
        row_of = {int(i): row for row, i in enumerate(ids)}
        for rank in cluster.ranks:
            rows = [row_of[int(i)] for i in rank.ids]
            assert np.array_equal(rank.points, points[rows])
        assert np.array_equal(np.sort(cluster.gather_ids()), np.sort(ids))

    def test_block_ranks_hold_contiguous_file_order_runs(self):
        cluster = Cluster(3)
        cluster.distribute_block(np.zeros((10, 2)))
        assert np.array_equal(np.concatenate([r.ids for r in cluster.ranks]), np.arange(10))

    @pytest.mark.parametrize(
        "ids, match",
        [([0, 1, -2, 3], "non-negative"), ([0, 1, 2.5, 3], "integers"), ([0, np.nan, 2, 3], "integers")],
        ids=["negative", "fractional", "nan"],
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_malformed_ids_rejected_before_any_rank_moves(self, method, ids, match):
        cluster = Cluster(2)
        cluster.distribute_block(np.ones((2, 3)))
        with pytest.raises(ValueError, match=match):
            getattr(cluster, method)(np.zeros((4, 3)), np.array(ids))
        assert cluster.points_per_rank() == [1, 1]
        assert np.array_equal(cluster.gather_points(), np.ones((2, 3)))
