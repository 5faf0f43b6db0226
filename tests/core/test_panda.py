"""Tests for the PandaKNN façade and the replicated-tree mode."""

import re

import numpy as np
import pytest

from repro.cluster.machine import MachineSpec
from repro.cluster.simulator import Cluster
from repro.core.config import PandaConfig
from repro.core.panda import PandaKNN, ReplicatedKNN
from repro.kdtree.query import brute_force_knn


class TestPandaKNN:
    def test_fit_query_round_trip(self, small_points, small_queries):
        index = PandaKNN(n_ranks=4).fit(small_points)
        d, i = index.kneighbors(small_queries, k=5)
        bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries, 5)
        assert np.allclose(d, bd, atol=1e-9)

    def test_query_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            PandaKNN(n_ranks=2).query(np.zeros((1, 3)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            PandaKNN(n_ranks=2).fit(np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fit_rejected_before_distribution(self, small_points, bad):
        points = small_points.copy()
        points[3, 0] = bad
        index = PandaKNN(n_ranks=2)
        with pytest.raises(ValueError, match="finite"):
            index.fit(points)
        assert not index.is_fitted
        assert index.cluster.total_points() == 0

    def test_ids_length_mismatch_reports_whole_arrays(self):
        points = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError, match="ids length 5 does not match number of points 10"):
            PandaKNN(n_ranks=2).fit(points, ids=np.arange(5))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (1, 1, 1, 3)])
    def test_queries_neither_1d_nor_2d_name_their_shape(self, small_points, shape):
        index = PandaKNN(n_ranks=2).fit(small_points)
        with pytest.raises(ValueError, match=re.escape(f"1-D or 2-D, got shape {shape}")):
            index.kneighbors(np.zeros(shape), k=3)
        d, _ = index.kneighbors(np.zeros(3), k=3)
        assert d.shape == (1, 3)

    def test_default_k_from_config(self, small_points, small_queries):
        index = PandaKNN(n_ranks=2, config=PandaConfig(k=7)).fit(small_points)
        report = index.query(small_queries[:10])
        assert report.k == 7
        assert report.distances.shape == (10, 7)

    def test_is_fitted_flag(self, small_points):
        index = PandaKNN(n_ranks=2)
        assert not index.is_fitted
        index.fit(small_points)
        assert index.is_fitted

    def test_local_trees_cover_dataset(self, small_points):
        index = PandaKNN(n_ranks=4).fit(small_points)
        trees = index.local_trees()
        assert len(trees) == 4
        assert sum(t.n_points for t in trees) == small_points.shape[0]

    def test_from_cluster(self, small_points, small_queries):
        cluster = Cluster(n_ranks=4)
        cluster.distribute_block(small_points)
        index = PandaKNN.from_cluster(cluster)
        d, _ = index.kneighbors(small_queries[:20], k=3)
        bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries[:20], 3)
        assert np.allclose(d, bd, atol=1e-9)

    def test_construction_breakdown_sums_to_one(self, small_points):
        index = PandaKNN(n_ranks=4).fit(small_points)
        breakdown = index.construction_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["Global kd-tree construction"] > 0.0

    def test_query_breakdown_sums_to_one(self, small_points, small_queries):
        index = PandaKNN(n_ranks=4).fit(small_points)
        index.query(small_queries, k=5)
        breakdown = index.query_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["Local KNN"] > 0.0

    def test_modeled_times_positive(self, small_points, small_queries):
        index = PandaKNN(n_ranks=4).fit(small_points)
        index.query(small_queries, k=5)
        assert index.construction_time().total_s > 0.0
        assert index.query_time().total_s > 0.0

    def test_reset_query_metrics(self, small_points, small_queries):
        index = PandaKNN(n_ranks=4).fit(small_points)
        index.query(small_queries, k=5)
        assert index.query_time().total_s > 0.0
        index.reset_query_metrics()
        assert index.query_time().total_s == pytest.approx(0.0)
        # Construction metrics must be preserved.
        assert index.construction_time().total_s > 0.0

    def test_load_imbalance_close_to_one(self, small_points):
        index = PandaKNN(n_ranks=4).fit(small_points)
        assert 1.0 <= index.load_imbalance() < 1.5

    def test_machine_override(self, small_points, small_queries):
        index = PandaKNN(n_ranks=2, machine=MachineSpec.knl()).fit(small_points)
        index.query(small_queries[:10], k=3)
        assert index.cluster.machine.name == "knl"

    def test_n_ranks_property(self, small_points):
        assert PandaKNN(n_ranks=3).fit(small_points).n_ranks == 3


class TestReplicatedKNN:
    def test_matches_brute_force(self, small_points, small_queries):
        index = ReplicatedKNN(n_ranks=4).fit(small_points)
        d, i, stats = index.query(small_queries, k=5)
        bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries, 5)
        assert np.allclose(d, bd, atol=1e-9)
        assert stats.queries == small_queries.shape[0]

    def test_query_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            ReplicatedKNN(n_ranks=2).query(np.zeros((1, 3)))

    def test_query_time_decreases_with_ranks(self, small_points, small_queries):
        t1 = ReplicatedKNN(n_ranks=1).fit(small_points)
        t1.query(small_queries, k=5)
        t8 = ReplicatedKNN(n_ranks=8).fit(small_points)
        t8.query(small_queries, k=5)
        assert t8.query_time().total_s < t1.query_time().total_s

    def test_broadcast_traffic_recorded(self, small_points):
        index = ReplicatedKNN(n_ranks=4).fit(small_points)
        total = index.cluster.metrics.phase_total("replicate_broadcast")
        assert total.bytes_sent > 0
