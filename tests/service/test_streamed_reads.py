"""Streamed reads: a read fetches ``k`` and goes back to the tree only for
the rows a dead id touched.

The parent commit asked the tree for ``k + n_tombstones`` on every read;
that single over-fetch survives here as :func:`overfetch_reference`, the
byte-for-byte yardstick of the lattice test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kdtree.query import _row_by_row_max, brute_force_knn
from repro.service import DeltaBuffer, KNNService, LocalTreeBackend, RebuildPolicy

K = 8
NEVER = RebuildPolicy(max_inserts=10**9, max_tombstones=10**9)


class SpyBackend:
    """A :class:`LocalTreeBackend` that logs ``(rows, width)`` of every fetch."""

    def __init__(self, points, ids=None):
        self.inner = LocalTreeBackend.fit(points, ids=ids)
        self.calls = []

    def kneighbors(self, queries, k):
        self.calls.append((queries.shape[0], k))
        return self.inner.kneighbors(queries, k)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def overfetch_reference(backend, tomb, delta_points, delta_ids, queries, k):
    """The parent commit's read: one ``k + n_tombstones`` fetch, filter, fuse."""
    d, i = backend.kneighbors(queries, k + tomb.size)
    dead = np.isin(i, tomb)
    d, i = np.where(dead, np.inf, d), np.where(dead, -1, i)
    if delta_ids.size:
        d_delta, i_delta = brute_force_knn(delta_points, delta_ids, queries, k)
        d, i = np.concatenate([d, d_delta], axis=1), np.concatenate([i, i_delta], axis=1)
    d = np.where(i >= 0, d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    d = np.take_along_axis(d, order, axis=1)
    return d, np.where(np.isfinite(d), np.take_along_axis(i, order, axis=1), -1)


def live_brute_force(points, dead, queries, k):
    live = np.setdiff1d(np.arange(points.shape[0]), dead)
    return brute_force_knn(points[live], live, queries, k)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(23)
    return rng.normal(size=(5_000, 3)), rng.normal(size=(60, 3))


class TestWidthsAsked:
    def test_only_rows_holding_a_dead_id_go_back(self, cloud):
        points, queries = cloud
        backend = SpyBackend(points)
        service = KNNService(backend, k=K, rebuild_policy=NEVER)
        _, clean_i = backend.inner.kneighbors(queries, K)
        # The nearest neighbour of ten queries, plus thirty ids at random.
        dead = np.unique(np.concatenate([clean_i[:10, 0], np.arange(0, 3_000, 100)]))
        service.delete(dead)
        dirty_rows = int(np.isin(clean_i, dead).any(axis=1).sum())
        assert 10 <= dirty_rows < queries.shape[0]

        backend.calls.clear()
        d, i = service.answer_batch(queries, k=K)
        ref_d, ref_i = live_brute_force(points, dead, queries, K)
        assert np.array_equal(d, ref_d) and np.array_equal(i, ref_i)

        first, *again = backend.calls
        assert first == (queries.shape[0], K)
        assert again[0][0] == dirty_rows
        assert all(rows <= dirty_rows and K < width < K + dead.size for rows, width in again)
        # The counter is the spy's count of rows sent back.
        refetched = sum(rows for rows, _ in again)
        assert service.refetched_rows == refetched
        assert service.obs_snapshot()["refetched_rows"] == float(refetched)

    def test_a_batch_no_dead_id_touches_is_one_fetch(self, cloud):
        points, queries = cloud
        backend = SpyBackend(points)
        service = KNNService(backend, k=K, rebuild_policy=NEVER)
        _, clean_i = backend.inner.kneighbors(queries, K)
        untouched = np.setdiff1d(np.arange(points.shape[0]), clean_i.ravel())[:50]
        service.delete(untouched)
        backend.calls.clear()
        _, i = service.answer_batch(queries, k=K)
        assert backend.calls == [(queries.shape[0], K)]
        assert np.array_equal(i, clean_i)
        assert service.refetched_rows == 0

    def test_clean_service_is_one_fetch(self, cloud):
        points, queries = cloud
        backend = SpyBackend(points)
        service = KNNService(backend, k=K)
        service.answer_batch(queries[:3], k=K)
        assert backend.calls == [(3, K)]


class TestDeletedNeighbourhood:
    def test_exact_in_logarithmically_many_refetches(self, cloud):
        points, _ = cloud
        query = np.zeros((1, 3))
        backend = SpyBackend(points)
        service = KNNService(backend, k=K, rebuild_policy=NEVER)
        _, nearest = backend.inner.kneighbors(query, 200)
        dead = nearest[0]
        service.delete(dead)
        backend.calls.clear()
        d, i = service.answer_batch(query, k=K)
        ref_d, ref_i = live_brute_force(points, dead, query, K)
        assert np.array_equal(d, ref_d) and np.array_equal(i, ref_i)
        widths = [width for _, width in backend.calls[1:]]
        assert len(widths) <= math.ceil(math.log2(dead.size / K)) + 2
        assert widths == sorted(widths) and widths[-1] <= K + dead.size

    def test_fewer_live_tree_points_than_k_pads(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(20, 3))
        queries = rng.normal(size=(4, 3))
        backend = SpyBackend(points)
        service = KNNService(backend, k=K, rebuild_policy=NEVER)
        dead = np.arange(15)
        service.delete(dead)
        d, i = service.answer_batch(queries, k=K)
        ref_d, ref_i = overfetch_reference(
            backend.inner, dead, np.empty((0, 3)), np.empty(0, dtype=np.int64), queries, K
        )
        assert np.array_equal(d, ref_d) and np.array_equal(i, ref_i)
        assert np.all(np.isinf(d[:, 5:])) and np.all(i[:, 5:] == -1)
        assert np.all(np.isfinite(d[:, :5])) and np.all(i[:, :5] >= 15)
        assert max(width for _, width in backend.calls) <= K + dead.size

        service.delete(np.arange(15, 20))
        d, i = service.answer_batch(queries, k=K)
        assert np.all(np.isinf(d)) and np.all(i == -1)


class TestLatticeMatchesTheOverfetch:
    def test_distances_and_ids_on_both_sides_of_the_crossover(self):
        rng = np.random.default_rng(34)
        axes = [np.arange(12, dtype=np.float64)] * 3
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        points = np.vstack([lattice, lattice[::3]])  # every third point twice
        crossover = _row_by_row_max(K)
        queries = rng.integers(0, 23, size=(4 * crossover, 3)) / 2.0  # points and midpoints
        backend = LocalTreeBackend.fit(points)
        service = KNNService(backend, k=K, rebuild_policy=NEVER)
        # Buffered points on lattice sites and midpoints: tied with tree
        # points and with each other.
        buffered = rng.integers(0, 23, size=(90, 3)) / 2.0
        buffered_ids = service.insert(buffered)
        dead = rng.choice(points.shape[0], size=150, replace=False)
        service.delete(dead)
        assert service.delta.n_tombstones == 150 and service.delta.n_inserted == 90

        for n in (1, crossover - 1, crossover, crossover + 1, 4 * crossover):
            d, i = service.answer_batch(queries[:n], k=K)
            ref_d, ref_i = overfetch_reference(backend, dead, buffered, buffered_ids, queries[:n], K)
            assert np.array_equal(d, ref_d)
            assert np.array_equal(i, ref_i)
        assert service.refetched_rows > 0
        assert np.isin(ref_i, buffered_ids).any()


class TestDeltaScan:
    @pytest.mark.parametrize("dims", [3, 10])
    def test_bit_equal_to_brute_force_ties_included(self, dims):
        rng = np.random.default_rng(dims)
        points = rng.integers(0, 3, size=(70, dims)).astype(np.float64)  # duplicates and ties
        ids = rng.permutation(1_000)[:70]
        buffer = DeltaBuffer(dims)
        buffer.insert(points[:40], ids[:40])
        buffer.insert(points[40:], ids[40:])
        queries = rng.integers(0, 5, size=(50, dims)) / 2.0
        for k in (1, 8, 70, 90):
            d, i = buffer.query(queries, k)
            ref_d, ref_i = brute_force_knn(points, ids, queries, k)
            assert np.array_equal(d, ref_d) and np.array_equal(i, ref_i)
        buffer.delete_buffered(int(ids[3]))
        d, i = buffer.query(queries[:1], 8)
        ref_d, ref_i = brute_force_knn(np.delete(points, 3, axis=0), np.delete(ids, 3), queries[:1], 8)
        assert np.array_equal(d, ref_d) and np.array_equal(i, ref_i)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "reinsert", "delete", "batch", "submit", "rebuild"]),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=30,
)


class TestRandomInterleavings:
    """Every answer equals brute force over the model's live set."""

    @pytest.mark.parametrize("dims", [3, 10])
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS, seed=st.integers(0, 2**16))
    # A point deleted and re-inserted elsewhere between two rebuilds.
    @example(
        ops=[("rebuild", 0), ("delete", 0), ("reinsert", 1), ("rebuild", 0), ("batch", 39)],
        seed=0,
    )
    def test_every_answer_matches_brute_force(self, dims, ops, seed):
        # Coordinates on a coarse grid, so duplicates and ties are common.
        def draw(rng, n):
            return rng.integers(0, 4, size=(n, dims)).astype(np.float64)

        rng = np.random.default_rng(seed)
        model = dict(enumerate(draw(rng, 40)))
        deleted = []
        service = KNNService(
            LocalTreeBackend.fit(np.stack(list(model.values()))),
            k=3,
            rebuild_policy=RebuildPolicy(max_inserts=10, max_tombstones=6),
            service_time=lambda n: 3.5e-3,  # a rebuild keeps the server busy for three ops
        )

        def check(d, i, queries, k):
            ids = np.fromiter(model, dtype=np.int64, count=len(model))
            live = np.stack([model[j] for j in ids]) if model else np.empty((0, dims))
            ref_d, _ = brute_force_knn(live, ids, queries, k)
            assert np.array_equal(d, ref_d)
            for row, query in enumerate(queries):
                found = i[row][i[row] >= 0]
                assert found.size == np.isfinite(ref_d[row]).sum() == np.unique(found).size
                mine = np.array([np.sqrt(((model[j] - query) ** 2).sum()) for j in found])
                assert np.allclose(mine, d[row, : found.size], rtol=1e-12)

        t = 0.0
        for kind, arg in ops:
            t = max(t, service.now) + 1e-3
            rng = np.random.default_rng(arg)
            k = 1 + arg % 5
            if kind == "insert":
                fresh = draw(rng, 1 + arg % 4)
                model.update(zip(service.insert(fresh, at=t).tolist(), fresh))
            elif kind == "reinsert" and deleted:
                point_id, fresh = deleted.pop(arg % len(deleted)), draw(rng, 1)
                service.insert(fresh, ids=np.array([point_id]), at=t)
                model[point_id] = fresh[0]
            elif kind == "delete" and model:
                doomed = rng.choice(list(model), size=min(len(model), 1 + arg % 4), replace=False)
                service.delete(doomed, at=t)
                for point_id in doomed.tolist():
                    del model[point_id]
                    deleted.append(point_id)
            elif kind == "batch":
                queries = draw(rng, 1 + arg % 40) + 0.5 * (arg % 2)
                check(*service.answer_batch(queries, k=k, at=t), queries, k)
            elif kind == "submit":
                queries = draw(rng, 1 + arg % 3)
                rids = [service.submit(query, k=k, at=t) for query in queries]
                service.flush(at=t)
                for rid, query in zip(rids, queries):
                    d, i = service.result(rid)
                    check(d[None, :], i[None, :], query[None, :], k)
            elif kind == "rebuild" and model:
                service.rebuild(at=t)
        assert service.n_live == len(model)
        service.close()
