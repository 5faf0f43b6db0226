"""Property-based tests of the distributed pipeline (hypothesis).

The central property: for ANY point cloud, rank count and k, the distributed
PANDA index returns exactly the same neighbour distances as a brute-force
scan of the full dataset, its ids depend on neither the query batch size
nor the ranks the queries start on, and redistribution never loses or
duplicates a point.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import Cluster
from repro.core.config import PandaConfig
from repro.core.panda import PandaKNN
from repro.core.query_engine import DistributedQueryEngine
from repro.core.redistribution import build_global_tree
from repro.kdtree.query import brute_force_knn


@st.composite
def distributed_cases(draw):
    n_points = draw(st.integers(60, 400))
    dims = draw(st.integers(1, 4))
    n_ranks = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    cluster_style = draw(st.sampled_from(["normal", "clustered", "duplicates", "lattice", "shared_ids"]))
    batch_size = draw(st.sampled_from([1, 3, 16, 64, 4096]))
    rng = np.random.default_rng(seed)
    if cluster_style == "normal":
        points = rng.normal(size=(n_points, dims))
    elif cluster_style == "clustered":
        centers = rng.normal(scale=5.0, size=(4, dims))
        assignment = rng.integers(0, 4, size=n_points)
        points = centers[assignment] + rng.normal(scale=0.1, size=(n_points, dims))
    elif cluster_style == "duplicates":
        base = rng.normal(size=(max(n_points // 10, 1), dims))
        idx = rng.integers(0, base.shape[0], size=n_points)
        points = base[idx] + rng.normal(scale=1e-9, size=(n_points, dims))
    elif cluster_style == "lattice":
        # Exact duplicates and exact distance ties everywhere.
        points = rng.integers(0, 4, size=(n_points, dims)).astype(np.float64)
    else:
        points = rng.normal(size=(n_points, dims))
    # Distinct points that share a user id must stay distinct neighbours.
    ids = np.arange(n_points) % 7 if cluster_style == "shared_ids" else np.arange(n_points)
    return points, ids, n_ranks, k, seed, batch_size


class TestDistributedProperties:
    @given(case=distributed_cases())
    @settings(max_examples=25, deadline=None)
    def test_distributed_knn_matches_brute_force(self, case):
        points, ids, n_ranks, k, seed, batch_size = case
        rng = np.random.default_rng(seed + 1)
        queries = points[rng.choice(points.shape[0], min(20, points.shape[0]), replace=False)]
        index = PandaKNN(n_ranks=n_ranks).fit(points, ids=ids)
        d, i = index.kneighbors(queries, k=k)
        bd, _ = brute_force_knn(points, ids, queries, k)
        assert np.allclose(d, bd, atol=1e-9)
        # Same ids from any batch size and any ranks the queries start on.
        config = PandaConfig(query_batch_size=batch_size)
        engine = DistributedQueryEngine(index.cluster, index.global_tree, config)
        origins = rng.integers(0, n_ranks, size=queries.shape[0])
        report = engine.query(queries, k=k, origin_ranks=origins)
        assert np.array_equal(report.distances, d)
        assert np.array_equal(report.ids, i)

    @given(case=distributed_cases())
    @settings(max_examples=25, deadline=None)
    def test_redistribution_is_a_permutation(self, case):
        points, _, n_ranks, _, _, _ = case
        cluster = Cluster(n_ranks=n_ranks)
        cluster.distribute_block(points)
        tree = build_global_tree(cluster, PandaConfig())
        assert cluster.total_points() == points.shape[0]
        ids = np.sort(cluster.gather_ids())
        assert np.array_equal(ids, np.arange(points.shape[0]))
        # Every rank's points lie inside its advertised box.
        for rank in cluster.ranks:
            if rank.n_points == 0:
                continue
            assert np.all(rank.points >= tree.box_lo[rank.rank] - 1e-12)
            assert np.all(rank.points <= tree.box_hi[rank.rank] + 1e-12)

    @given(
        n_points=st.integers(50, 300),
        n_ranks=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_remote_fanout_bounded_by_ranks(self, n_points, n_ranks, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n_points, 3))
        index = PandaKNN(n_ranks=n_ranks).fit(points)
        report = index.query(points[:10], k=3)
        assert np.all(report.remote_fanout <= n_ranks - 1)
        assert np.all(report.remote_fanout >= 0)
