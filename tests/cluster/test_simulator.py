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
