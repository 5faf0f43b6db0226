"""Tests for the five-step distributed query protocol."""

import numpy as np
import pytest

from repro.cluster.simulator import Cluster
from repro.core.config import PandaConfig
from repro.core.local_phase import build_local_trees, local_tree_of
from repro.core.panda import PandaKNN
from repro.core.query_engine import QUERY_PHASES, DistributedQueryEngine
from repro.core.redistribution import build_global_tree
from repro.kdtree.heap import merge_topk_rows
from repro.kdtree.query import batch_knn, brute_force_knn


def _engine(points: np.ndarray, n_ranks: int, config: PandaConfig | None = None):
    config = config or PandaConfig(query_batch_size=256)
    cluster = Cluster(n_ranks=n_ranks)
    cluster.distribute_block(points)
    tree = build_global_tree(cluster, config)
    build_local_trees(cluster, config)
    return DistributedQueryEngine(cluster, tree, config)


class TestDistributedQueryCorrectness:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 5])
    def test_matches_brute_force(self, small_points, small_queries, n_ranks):
        engine = _engine(small_points, n_ranks)
        report = engine.query(small_queries, k=5)
        bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries, 5)
        assert np.allclose(report.distances, bd, atol=1e-9)

    def test_clustered_data_matches_brute_force(self, cosmo_points):
        rng = np.random.default_rng(0)
        queries = cosmo_points[rng.choice(cosmo_points.shape[0], 150, replace=False)]
        engine = _engine(cosmo_points, 8)
        report = engine.query(queries, k=7)
        bd, _ = brute_force_knn(cosmo_points, np.arange(cosmo_points.shape[0]), queries, 7)
        assert np.allclose(report.distances, bd, atol=1e-9)

    def test_high_dimensional_data(self, dayabay_data):
        points, _ = dayabay_data
        rng = np.random.default_rng(1)
        queries = points[rng.choice(points.shape[0], 60, replace=False)]
        engine = _engine(points, 4)
        report = engine.query(queries, k=5)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, 5)
        assert np.allclose(report.distances, bd, atol=1e-9)

    def test_ids_match_distances(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        report = engine.query(small_queries[:20], k=3)
        for qi in range(20):
            for slot in range(3):
                pid = report.ids[qi, slot]
                if pid < 0:
                    continue
                true_dist = np.linalg.norm(small_points[pid] - small_queries[qi])
                assert true_dist == pytest.approx(report.distances[qi, slot], abs=1e-9)

    def test_k_larger_than_dataset(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(40, 3))
        engine = _engine(points, 4)
        report = engine.query(points[:5], k=100)
        found = (report.ids[0] >= 0).sum()
        assert found == 40

    def test_small_batches_still_correct(self, small_points, small_queries):
        engine = _engine(small_points, 4, PandaConfig(query_batch_size=17))
        report = engine.query(small_queries, k=4)
        bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries, 4)
        assert np.allclose(report.distances, bd, atol=1e-9)
        assert report.n_batches == int(np.ceil(small_queries.shape[0] / 17))


class TestQueryReport:
    def test_report_shapes(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        report = engine.query(small_queries, k=5)
        n = small_queries.shape[0]
        assert report.distances.shape == (n, 5)
        assert report.ids.shape == (n, 5)
        assert report.owners.shape == (n,)
        assert report.remote_fanout.shape == (n,)
        assert report.n_queries == n

    def test_owner_assignment_matches_global_tree(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        report = engine.query(small_queries, k=5)
        expected = engine.global_tree.owner_of(small_queries)
        assert np.array_equal(report.owners, expected)

    def test_remote_fanout_statistics(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        report = engine.query(small_queries, k=5)
        assert 0.0 <= report.fraction_sent_remote <= 1.0
        assert report.mean_remote_fanout <= engine.cluster.n_ranks - 1
        summary = report.summary()
        assert summary["n_queries"] == small_queries.shape[0]

    def test_single_rank_has_no_remote_queries(self, small_points, small_queries):
        engine = _engine(small_points, 1)
        report = engine.query(small_queries, k=5)
        assert report.mean_remote_fanout == 0.0
        assert report.fraction_sent_remote == 0.0

    def test_colocated_records_increase_fanout(self, dayabay_data, cosmo_points):
        """The dayabay-like data forces more remote lookups than cosmology."""
        day_points, _ = dayabay_data
        rng = np.random.default_rng(3)
        day_queries = day_points[rng.choice(day_points.shape[0], 100, replace=False)]
        cos_queries = cosmo_points[rng.choice(cosmo_points.shape[0], 100, replace=False)]
        day_report = _engine(day_points, 8).query(day_queries, k=5)
        cos_report = _engine(cosmo_points, 8).query(cos_queries, k=5)
        assert day_report.mean_remote_fanout > cos_report.mean_remote_fanout

    def test_phases_recorded(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        engine.query(small_queries, k=5)
        for phase in QUERY_PHASES:
            assert phase in engine.cluster.metrics.phase_order

    def test_remote_knn_work_less_than_local(self, cosmo_points):
        rng = np.random.default_rng(4)
        queries = cosmo_points[rng.choice(cosmo_points.shape[0], 200, replace=False)]
        engine = _engine(cosmo_points, 4)
        report = engine.query(queries, k=5)
        # Remote searches are radius-bounded, so they do less work per query.
        assert report.remote_stats.distance_computations < report.local_stats.distance_computations


class TestMergeAccounting:
    def test_ids_match_brute_force_exactly(self, small_points, small_queries):
        """The vectorised step-5 merge returns the exact neighbour ids."""
        engine = _engine(small_points, 4)
        report = engine.query(small_queries, k=5)
        bd, bi = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries, 5)
        assert np.allclose(report.distances, bd, atol=1e-9)
        assert np.array_equal(report.ids, bi)

    def test_remote_neighbors_used_bounds(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        report = engine.query(small_queries, k=5)
        assert np.all(report.remote_neighbors_used >= 0)
        assert np.all(report.remote_neighbors_used <= 5)
        # A neighbour can only come from a remote rank if the query was
        # actually forwarded to at least one.
        assert np.all(report.remote_neighbors_used[report.remote_fanout == 0] == 0)

    def test_remote_neighbors_counted_against_owner(self, small_points, small_queries):
        """remote_neighbors_used equals the final ids not held by the owner."""
        engine = _engine(small_points, 4)
        report = engine.query(small_queries, k=5)
        # Recover each rank's point ids from the cluster.
        rank_ids = [set(r.ids.tolist()) for r in engine.cluster.ranks]
        for qi in range(small_queries.shape[0]):
            owner = int(report.owners[qi])
            final = [int(x) for x in report.ids[qi] if x >= 0]
            expected = sum(1 for pid in final if pid not in rank_ids[owner])
            assert report.remote_neighbors_used[qi] == expected

    def test_duplicate_points_across_batch(self, small_points):
        """Queries duplicated across batch boundaries merge independently."""
        queries = np.repeat(small_points[:10], 3, axis=0)
        engine = _engine(small_points, 4, PandaConfig(query_batch_size=7))
        report = engine.query(queries, k=4)
        for rep in range(3):
            assert np.array_equal(report.ids[rep::3][:10], report.ids[0::3][:10])


def _tie_lattice():
    """An 8^3 lattice twice over plus the lattice shifted by 0.5, and 250
    queries on a quarter-step grid: almost every neighbour is an exact tie."""
    grid = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    points = np.concatenate([grid, grid, grid + 0.5])
    queries = np.random.default_rng(11).integers(0, 29, size=(250, 3)) * 0.25
    return points, queries


def _fold_reference(engine: DistributedQueryEngine, queries: np.ndarray, k: int):
    """Each rank's own ``batch_knn`` answer, folded owner first, then by
    ascending rank: the tie rule the engine promises."""
    cluster = engine.cluster
    answers = [batch_knn(local_tree_of(cluster, r), queries, k)[:2] for r in range(cluster.n_ranks)]
    owners = engine.global_tree.owner_of(queries)
    out_d = np.stack([answers[o][0][q] for q, o in enumerate(owners)])
    out_i = np.stack([answers[o][1][q] for q, o in enumerate(owners)])
    for r, (d, i) in enumerate(answers):
        rows = np.flatnonzero(owners != r)
        out_d[rows], out_i[rows] = merge_topk_rows(k, out_d[rows], out_i[rows], d[rows], i[rows])
    return out_d, out_i


class TestTieRule:
    def test_ids_do_not_depend_on_batch_or_origin(self):
        points, queries = _tie_lattice()
        k = 8
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, k)
        want_d, want_i = _fold_reference(_engine(points, 4), queries, k)
        assert np.array_equal(want_d, bd)
        origins = np.random.default_rng(12).integers(0, 4, size=queries.shape[0])
        for batch in (7, 64, 4096, 32768):
            engine = _engine(points, 4, PandaConfig(query_batch_size=batch))
            for origin_ranks in (None, origins):
                report = engine.query(queries, k=k, origin_ranks=origin_ranks)
                assert np.array_equal(report.distances, want_d)
                assert np.array_equal(report.ids, want_i), f"batch {batch}"

    def test_shared_user_ids_keep_distinct_points(self):
        """Two points that share a user id are still two neighbours."""
        rng = np.random.default_rng(13)
        points = rng.uniform(-1.0, 1.0, size=(4000, 3))
        ids = np.arange(points.shape[0], dtype=np.int64)
        ids[points[:, 0] > 0] %= 7
        queries = rng.normal(scale=0.05, size=(200, 3))
        d, i = PandaKNN(n_ranks=4).fit(points, ids=ids).kneighbors(queries, k=8)
        bd, bi = brute_force_knn(points, ids, queries, 8)
        assert np.array_equal(d, bd)
        assert np.array_equal(i, bi)


class TestTraffic:
    def test_batch_size_moves_messages_not_bytes(self, small_points, small_queries):
        sent = []
        for batch in (64, 4096, PandaConfig().query_batch_size):
            engine = _engine(small_points, 4, PandaConfig(query_batch_size=batch))
            before = engine.cluster.metrics.grand_total()
            report = engine.query(small_queries, k=5)
            after = engine.cluster.metrics.grand_total()
            sent.append((report.n_batches, after.bytes_sent - before.bytes_sent, after.messages_sent - before.messages_sent))
        assert len({nbytes for _, nbytes, _ in sent}) == 1
        batches = [n for n, _, _ in sent]
        messages = [m for _, _, m in sent]
        assert batches[0] > batches[-1]
        assert all(a >= b for a, b in zip(messages, messages[1:]))
        assert messages[0] > messages[-1]


class TestValidation:
    def test_invalid_k_rejected(self, small_points, small_queries):
        engine = _engine(small_points, 2)
        with pytest.raises(ValueError):
            engine.query(small_queries, k=0)

    def test_mismatched_origin_ranks_rejected(self, small_points, small_queries):
        engine = _engine(small_points, 2)
        with pytest.raises(ValueError):
            engine.query(small_queries, k=3, origin_ranks=np.zeros(3, dtype=np.int64))

    def test_invalid_origin_rank_value_rejected(self, small_points, small_queries):
        engine = _engine(small_points, 2)
        bad = np.full(small_queries.shape[0], 9, dtype=np.int64)
        with pytest.raises(ValueError):
            engine.query(small_queries, k=3, origin_ranks=bad)

    def test_custom_origin_ranks_accepted(self, small_points, small_queries):
        engine = _engine(small_points, 4)
        origins = np.random.default_rng(5).integers(0, 4, size=small_queries.shape[0])
        report = engine.query(small_queries, k=3, origin_ranks=origins)
        bd, _ = brute_force_knn(small_points, np.arange(small_points.shape[0]), small_queries, 3)
        assert np.allclose(report.distances, bd, atol=1e-9)

    def test_global_tree_rank_mismatch_rejected(self, small_points):
        config = PandaConfig()
        cluster = Cluster(n_ranks=4)
        cluster.distribute_block(small_points)
        tree = build_global_tree(cluster, config)
        build_local_trees(cluster, config)
        other = Cluster(n_ranks=2)
        other.distribute_block(small_points)
        with pytest.raises(ValueError):
            DistributedQueryEngine(other, tree, config)
