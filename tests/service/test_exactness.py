"""Exactness guard: service answers vs brute force on randomized workloads.

Every answer path of the online service — cold dispatch, cache hit, delta
-buffer fusion, tombstone filtering, post-rebuild — must be exact against a
brute-force scan of the *live* point set (indexed points minus deletions
plus streamed inserts).  These tests drive randomized interleavings of
queries, inserts and deletes (including deletes of points that were in the
tree at fit time) and verify every returned distance row.
"""

import numpy as np
import pytest

from repro.kdtree.query import brute_force_knn
from repro.service import (
    KNNService,
    LocalTreeBackend,
    MicroBatchPolicy,
    RebuildPolicy,
    hotkey_trace,
)


class LiveSetReference:
    """Mirror of the service's live set, answered by brute force."""

    def __init__(self, points: np.ndarray, ids: np.ndarray) -> None:
        self.points = {int(i): p for i, p in zip(ids, points)}

    def insert(self, points: np.ndarray, ids: np.ndarray) -> None:
        for i, p in zip(ids, points):
            self.points[int(i)] = p

    def delete(self, ids) -> None:
        for i in np.asarray(ids).ravel():
            del self.points[int(i)]

    def knn(self, queries: np.ndarray, k: int):
        ids = np.fromiter(self.points.keys(), dtype=np.int64, count=len(self.points))
        pts = np.stack([self.points[int(i)] for i in ids]) if ids.size else np.empty((0, queries.shape[1]))
        return brute_force_knn(pts, ids, queries, k)


def assert_exact(service: KNNService, reference: LiveSetReference, queries: np.ndarray, k: int):
    """Every service answer row must match brute force over the live set."""
    ref_d, ref_i = reference.knn(np.atleast_2d(queries), k)
    rids = [service.submit(q, k=k) for q in np.atleast_2d(queries)]
    service.flush()
    for row, rid in enumerate(rids):
        d, i = service.result(rid)
        np.testing.assert_allclose(d, ref_d[row], err_msg=f"query row {row}")
        # Ids must agree wherever distances are untied; compare sets to stay
        # agnostic to tie order.
        finite = np.isfinite(ref_d[row])
        assert set(i[finite]) | {-1} >= set(ref_i[row][finite]) or np.allclose(
            np.sort(d[finite]), np.sort(ref_d[row][finite])
        )


@pytest.fixture(scope="module")
def base(small_points):
    ids = np.arange(small_points.shape[0], dtype=np.int64)
    return small_points, ids


class TestRandomizedWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_updates_and_queries(self, base, seed):
        points, ids = base
        rng = np.random.default_rng(seed)
        service = KNNService(
            LocalTreeBackend.fit(points, ids=ids),
            k=4,
            rebuild_policy=RebuildPolicy(max_inserts=60, max_tombstones=25),
        )
        reference = LiveSetReference(points, ids)
        lo, hi = points.min(axis=0), points.max(axis=0)
        for _ in range(30):
            op = rng.choice(["query", "insert", "delete"], p=[0.5, 0.3, 0.2])
            if op == "query":
                queries = rng.uniform(lo, hi, size=(rng.integers(1, 6), points.shape[1]))
                assert_exact(service, reference, queries, k=int(rng.integers(1, 8)))
            elif op == "insert":
                fresh = rng.uniform(lo, hi, size=(int(rng.integers(1, 20)), points.shape[1]))
                new_ids = service.insert(fresh)
                reference.insert(fresh, new_ids)
            else:
                live = np.fromiter(reference.points.keys(), dtype=np.int64)
                victims = rng.choice(live, size=min(int(rng.integers(1, 10)), live.size), replace=False)
                service.delete(victims)
                reference.delete(victims)
        assert service.n_live == len(reference.points)
        # Final sweep touches every path once more.
        queries = rng.uniform(lo, hi, size=(20, points.shape[1]))
        assert_exact(service, reference, queries, k=5)

    def test_deletes_of_fitted_tree_points(self, base):
        # Deleting points that were in the tree at fit time exercises the
        # tombstone over-fetch, including deleting a query's own location.
        points, ids = base
        rng = np.random.default_rng(7)
        service = KNNService(LocalTreeBackend.fit(points, ids=ids), k=5)
        reference = LiveSetReference(points, ids)
        victims = rng.choice(ids, size=40, replace=False)
        service.delete(victims)
        reference.delete(victims)
        # Query at deleted locations: the dead point must not appear.
        queries = points[victims[:10]]
        ref_d, _ = reference.knn(queries, 5)
        for row, q in enumerate(queries):
            d, i = service.query(q)
            assert not np.isin(victims, i).any()
            np.testing.assert_allclose(d, ref_d[row])

    def test_cache_hits_are_exact_across_mutations(self, base):
        points, ids = base
        rng = np.random.default_rng(3)
        service = KNNService(LocalTreeBackend.fit(points, ids=ids), k=4, cache_capacity=64)
        reference = LiveSetReference(points, ids)
        hot = points[rng.choice(points.shape[0], 8, replace=False)] + 1e-3
        for _ in range(3):  # repeated -> served from cache after first round
            assert_exact(service, reference, hot, k=4)
        assert service.cache_stats.hits > 0
        # Mutate: the cached answers must be invalidated, then re-verified.
        fresh = hot[:3] + 1e-5
        new_ids = service.insert(fresh)
        reference.insert(fresh, new_ids)
        assert_exact(service, reference, hot, k=4)

    def test_policy_triggered_rebuild_stays_exact(self, base):
        points, ids = base
        rng = np.random.default_rng(11)
        service = KNNService(
            LocalTreeBackend.fit(points, ids=ids),
            k=6,
            rebuild_policy=RebuildPolicy(max_inserts=32, max_tombstones=1000),
        )
        reference = LiveSetReference(points, ids)
        lo, hi = points.min(axis=0), points.max(axis=0)
        probe = rng.uniform(lo, hi, size=(15, points.shape[1]))
        assert_exact(service, reference, probe, k=6)  # before any update
        fresh = rng.uniform(lo, hi, size=(31, points.shape[1]))
        reference.insert(fresh, service.insert(fresh))
        assert service.rebuilds == 0
        assert_exact(service, reference, probe, k=6)  # fused delta answers
        more = rng.uniform(lo, hi, size=(5, points.shape[1]))
        reference.insert(more, service.insert(more))
        assert service.rebuilds == 1  # policy fired
        assert service.delta.n_updates == 0
        assert_exact(service, reference, probe, k=6)  # post-rebuild answers

    def test_hotkey_trace_with_mid_trace_mutations(self, base):
        points, ids = base
        service = KNNService(
            LocalTreeBackend.fit(points, ids=ids),
            k=3,
            batch_policy=MicroBatchPolicy(max_batch=32, max_delay_s=1e-3),
            cache_capacity=128,
        )
        reference = LiveSetReference(points, ids)
        times, queries = hotkey_trace(300, rate=20_000, pool=points, n_hot=6, seed=5)
        rng = np.random.default_rng(9)
        answers = {}
        for j, (t, q) in enumerate(zip(times, queries)):
            answers[service.submit(q, at=t)] = q
            if j == 150:
                fresh = rng.normal(size=(10, points.shape[1]))
                reference.insert(fresh, service.insert(fresh, at=t))
        service.drain()
        # Requests before the mutation answered against the old live set;
        # verify only the post-mutation tail against the final reference.
        tail = {rid: q for rid, q in answers.items() if rid > max(answers) - 100}
        ref_d, _ = reference.knn(np.stack(list(tail.values())), 3)
        for row, rid in enumerate(tail):
            d, _ = service.result(rid)
            np.testing.assert_allclose(d, ref_d[row])
