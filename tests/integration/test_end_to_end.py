"""End-to-end integration tests across the whole pipeline."""

import numpy as np
import pytest

from repro import KNNClassifier, PandaConfig, PandaKNN, brute_force_knn
from repro.baselines.brute_force import BruteForceDistributedKNN
from repro.baselines.local_only import LocalTreesKNN
from repro.datasets.cosmology import cosmology_particles
from repro.datasets.dayabay import dayabay_records
from repro.datasets.plasma import plasma_particles


class TestFullPipeline:
    @pytest.mark.parametrize("generator,seed", [
        (lambda n: cosmology_particles(n, seed=21), 21),
        (lambda n: plasma_particles(n, seed=22), 22),
    ])
    def test_science_datasets_exact_neighbors(self, generator, seed):
        points = generator(4_000)
        rng = np.random.default_rng(seed)
        queries = points[rng.choice(points.shape[0], 120, replace=False)]
        index = PandaKNN(n_ranks=8).fit(points)
        d, _ = index.kneighbors(queries, k=5)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, 5)
        assert np.allclose(d, bd, atol=1e-9)

    def test_all_strategies_agree(self, small_points, small_queries):
        """PANDA, exhaustive distributed search and independent local trees
        must all return the same neighbour distances."""
        queries = small_queries[:40]
        panda_d, _ = PandaKNN(n_ranks=4).fit(small_points).kneighbors(queries, k=5)
        bf_d, _ = BruteForceDistributedKNN(n_ranks=4).fit(small_points).query(queries, k=5)
        lo_d, _, _ = LocalTreesKNN(n_ranks=4).fit(small_points).query(queries, k=5)
        assert np.allclose(panda_d, bf_d, atol=1e-9)
        assert np.allclose(panda_d, lo_d, atol=1e-9)

    def test_empty_rank_still_charges_local_phases(self, small_points):
        """A rank left empty after redistribution must still register (and
        merge) all three local construction phases into the cluster metrics."""
        from repro.cluster.simulator import Cluster
        from repro.core.local_phase import LOCAL_PHASES, build_local_trees

        cluster = Cluster(n_ranks=3)
        cluster.ranks[0].set_points(small_points[:100])
        cluster.ranks[1].set_points(np.empty((0, 3)))
        cluster.ranks[2].set_points(small_points[100:250])
        trees = build_local_trees(cluster)
        assert trees[1].n_points == 0
        for rank in range(3):
            for phase in LOCAL_PHASES:
                assert phase in cluster.metrics.rank(rank).phases, (rank, phase)
        # The empty rank streamed nothing but the phases exist with zeros.
        empty_total = cluster.metrics.rank(1).total()
        assert empty_total.elements_moved == 0

    def test_dayabay_classification_pipeline(self):
        points, labels = dayabay_records(5_000, seed=25)
        split = 4_000
        clf = KNNClassifier(k=5, n_ranks=4).fit(points[:split], labels[:split])
        accuracy = clf.score(points[split:], labels[split:])
        assert accuracy > 0.75

    def test_construction_then_repeated_query_batches(self, small_points):
        """The paper reuses a constructed tree for many query waves."""
        index = PandaKNN(n_ranks=4, config=PandaConfig(query_batch_size=64)).fit(small_points)
        rng = np.random.default_rng(26)
        for _ in range(3):
            queries = small_points[rng.choice(small_points.shape[0], 70, replace=False)]
            d, _ = index.kneighbors(queries, k=4)
            bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), queries, 4)
            assert np.allclose(d, bd, atol=1e-9)

    def test_metrics_accumulate_over_query_waves(self, small_points, small_queries):
        index = PandaKNN(n_ranks=2).fit(small_points)
        index.query(small_queries[:50], k=3)
        first = index.query_time().total_s
        index.query(small_queries[:50], k=3)
        second = index.query_time().total_s
        assert second > first

    def test_public_api_importable(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name)
