"""Unit tests for the online service: cache, batching, latency, updates."""

import re

import numpy as np
import pytest

from repro.kdtree.query import brute_force_knn
from repro.service import (
    KNNService,
    LocalTreeBackend,
    LRUCache,
    MicroBatchPolicy,
    RebuildPolicy,
    RecordRing,
)
from repro.service.cache import query_key
from repro.service.delta import DeltaBuffer


@pytest.fixture(scope="module")
def backend(small_points):
    return LocalTreeBackend.fit(small_points)


def make_service(backend, **kwargs):
    kwargs.setdefault("service_time", lambda n: 0.001)  # deterministic clock
    return KNNService(backend, **kwargs)


class TestPolicyValidation:
    """A NaN fails every comparison, so it must not pass a positivity check
    and silently disable a trigger."""

    @pytest.mark.parametrize("field", ["max_inserts", "max_tombstones", "max_staleness_s"])
    @pytest.mark.parametrize("bad", [np.nan, 0, -1])
    def test_rebuild_policy_rejects_non_positive(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RebuildPolicy(**{field: bad})

    @pytest.mark.parametrize("bad", [np.nan, -1e-3])
    def test_micro_batch_policy_rejects_bad_max_delay(self, bad):
        with pytest.raises(ValueError, match="max_delay_s"):
            MicroBatchPolicy(max_delay_s=bad)


class TestLRUCache:
    def test_hit_miss_and_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b" (least recent)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_counts_one_full_clear(self):
        # A whole-cache wipe is one full clear, however many keys die —
        # it must not masquerade as per-key drops (and vice versa).
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert cache.get("a") is None
        assert cache.stats.full_clears == 1
        assert cache.stats.keys_dropped == 0
        cache.clear()  # empty: nothing invalidated
        assert cache.stats.full_clears == 1

    def test_drop_counts_keys_individually(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.drop(["a", "c", "zzz"]) == 2  # absent keys ignored
        assert cache.stats.keys_dropped == 2
        assert cache.stats.full_clears == 0
        assert cache.get("b") == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_query_key_distinguishes_k(self):
        q = np.array([1.0, 2.0])
        assert query_key(q, 3) != query_key(q, 4)
        assert query_key(q, 3) == query_key(q.copy(), 3)


class TestDeltaBuffer:
    def test_insert_query_delete(self):
        buf = DeltaBuffer(dims=2)
        buf.insert(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([10, 11]))
        d, i = buf.query(np.array([[0.1, 0.0]]), k=2)
        assert i[0, 0] == 10
        buf.delete_buffered(10)
        d, i = buf.query(np.array([[0.1, 0.0]]), k=2)
        assert i[0, 0] == 11 and i[0, 1] == -1
        assert buf.n_inserted == 1

    def test_reinsert_after_delete_uses_new_coords(self):
        buf = DeltaBuffer(dims=1)
        buf.insert(np.array([[0.0]]), np.array([7]))
        buf.delete_buffered(7)
        buf.insert(np.array([[5.0]]), np.array([7]))
        pts, ids = buf.live_arrays()
        assert pts.shape == (1, 1) and pts[0, 0] == 5.0 and ids[0] == 7

    def test_duplicate_ids_rejected(self):
        buf = DeltaBuffer(dims=1)
        buf.insert(np.array([[0.0]]), np.array([1]))
        with pytest.raises(ValueError):
            buf.insert(np.array([[1.0]]), np.array([1]))
        with pytest.raises(ValueError):
            buf.insert(np.array([[1.0], [2.0]]), np.array([5, 5]))

    def test_unknown_delete_rejected(self):
        buf = DeltaBuffer(dims=1)
        with pytest.raises(KeyError):
            buf.delete_buffered(99)


class TestMicroBatching:
    def test_size_trigger_dispatches_full_batch(self, backend, small_points):
        policy = MicroBatchPolicy(max_batch=8, min_batch=8, max_delay_s=10.0)
        service = make_service(backend, batch_policy=policy, cache_capacity=0)
        for j in range(8):
            service.submit(small_points[j], at=float(j) * 1e-4)
        assert service.n_pending == 0  # size trigger fired on the 8th
        assert all(r.batch_size == 8 for r in service.records)

    def test_deadline_flush(self, backend, small_points):
        policy = MicroBatchPolicy(max_batch=100, min_batch=100, max_delay_s=0.01)
        service = make_service(backend, batch_policy=policy, cache_capacity=0)
        service.submit(small_points[0], at=0.0)
        service.submit(small_points[1], at=0.001)
        assert service.n_pending == 2
        # Advancing past the oldest deadline (0.01) flushes both.
        service.submit(small_points[2], at=0.05)
        assert service.n_pending == 1
        first_two = service.records[:2]
        assert all(r.dispatch == pytest.approx(0.01) for r in first_two)

    def test_deadline_flush_excludes_later_arrivals(self, backend, small_points):
        policy = MicroBatchPolicy(max_batch=100, min_batch=100, max_delay_s=0.01)
        service = make_service(backend, batch_policy=policy, cache_capacity=0)
        service.submit(small_points[0], at=0.0)
        service.submit(small_points[1], at=0.02)  # deadline of q0 passed at 0.01
        # q0 flushed alone at its deadline; q1 still pending.
        assert service.n_pending == 1
        assert service.records[0].batch_size == 1
        assert service.records[0].dispatch == pytest.approx(0.01)

    def test_adaptive_target_tracks_arrival_rate(self, backend, small_points):
        policy = MicroBatchPolicy(max_batch=64, min_batch=2, max_delay_s=0.01)
        service = make_service(backend, batch_policy=policy, cache_capacity=0)
        # 1 kHz arrivals -> ~10 per 10 ms window.
        for j in range(30):
            service.submit(small_points[j], at=j * 1e-3)
        assert 2 <= service.target_batch_size() <= 64
        assert service.target_batch_size() == pytest.approx(10, abs=3)

    def test_flush_dispatches_everything(self, backend, small_points):
        service = make_service(backend, cache_capacity=0)
        for j in range(5):
            service.submit(small_points[j], at=0.0)
        dispatched = service.flush()
        assert dispatched == 5
        assert service.n_pending == 0
        for j in range(5):
            d, i = service.result(j)
            assert i[0] == j

    def test_mixed_k_in_one_batch(self, backend, small_points):
        service = make_service(backend, cache_capacity=0)
        r3 = service.submit(small_points[0], k=3, at=0.0)
        r7 = service.submit(small_points[0], k=7, at=0.0)
        service.flush()
        assert service.result(r3)[0].shape == (3,)
        assert service.result(r7)[0].shape == (7,)

    def test_time_cannot_go_backwards(self, backend, small_points):
        service = make_service(backend)
        service.submit(small_points[0], at=5.0)
        with pytest.raises(ValueError):
            service.submit(small_points[1], at=4.0)

    def test_pending_result_unavailable(self, backend, small_points):
        policy = MicroBatchPolicy(max_batch=100, min_batch=100, max_delay_s=10.0)
        service = make_service(backend, batch_policy=policy)
        rid = service.submit(small_points[0], at=0.0)
        with pytest.raises(KeyError):
            service.result(rid)

    @pytest.mark.parametrize("call", ["submit", "query", "answer_batch"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected_before_anything_moves(
        self, backend, small_points, call, bad
    ):
        policy = MicroBatchPolicy(max_batch=100, max_delay_s=10.0)
        service = make_service(backend, batch_policy=policy, cache_capacity=16)
        service.submit(small_points[0], at=1.0)
        service.submit(small_points[1], at=1.5)
        target = service.target_batch_size()
        query = small_points[2].copy()
        query[1] = bad
        with pytest.raises(ValueError, match="finite"):
            getattr(service, call)(query, at=2.5)
        assert service.now == 1.5 and service.n_pending == 2
        assert service.target_batch_size() == target
        assert service.cache_stats.misses == 2 and len(service.cache) == 0
        # The request-id counter did not move either.
        assert service.submit(small_points[3], at=3.0) == 2


class TestLatencyAccounting:
    def test_single_server_queueing(self, backend, small_points):
        # Each batch takes 1 ms; three size-1 batches arriving at once must
        # serialise: completions at 1, 2 and 3 ms.
        policy = MicroBatchPolicy(max_batch=1, min_batch=1, max_delay_s=10.0)
        service = make_service(backend, batch_policy=policy, cache_capacity=0)
        for _ in range(3):
            service.submit(small_points[0], at=0.0)
        completions = sorted(r.completion for r in service.records)
        assert completions == pytest.approx([0.001, 0.002, 0.003])

    def test_cache_hit_completes_instantly(self, backend, small_points):
        service = make_service(backend, cache_capacity=16)
        service.query(small_points[0], at=0.0)
        rid = service.submit(small_points[0], at=1.0)
        record = next(r for r in service.records if r.request_id == rid)
        assert record.cache_hit
        assert record.latency == 0.0

    def test_summary_shape(self, backend, small_points):
        service = make_service(backend, cache_capacity=16)
        for j in range(10):
            service.submit(small_points[j % 3], at=j * 1e-4)
        service.drain()
        summary = service.latency_summary()
        assert summary["n_requests"] == 10
        assert summary["p99_latency_s"] >= summary["p50_latency_s"] >= 0.0
        assert summary["qps"] > 0
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0

    def test_empty_summary(self):
        summary = RecordRing(1).summary()
        assert summary["n_requests"] == 0.0
        assert summary["qps"] == 0.0


class TestStreamingUpdates:
    def test_insert_then_query_sees_new_point(self, backend, small_points):
        service = make_service(backend, k=3)
        far = small_points.max(axis=0) + 5.0
        (new_id,) = service.insert(far[None, :], at=0.0)
        d, i = service.query(far, at=1.0)
        assert i[0] == new_id and d[0] == 0.0

    def test_delete_tree_point_disappears(self, backend, small_points):
        service = make_service(backend, k=2)
        service.delete([13])
        d, i = service.query(small_points[13])
        assert 13 not in i
        assert np.isfinite(d).all()

    def test_delete_unknown_id_rejected(self, backend, small_points):
        service = make_service(backend)
        with pytest.raises(KeyError):
            service.delete([10_000_000])
        with pytest.raises(KeyError):  # double delete
            service.delete([5])
            service.delete([5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fit_and_refit_rejected(self, backend, small_points, bad):
        points = small_points[:50].copy()
        points[4, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LocalTreeBackend.fit(points)
        with pytest.raises(ValueError, match="finite"):  # a rebuild's fold
            backend.fold(np.empty(0, dtype=np.int64), points, np.arange(50) + 10_000)

    def test_colliding_insert_id_rejected(self, backend, small_points):
        service = make_service(backend)
        with pytest.raises(ValueError):
            service.insert(small_points[:1], ids=np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_insert_rejected_before_any_mutation(self, backend, small_points, bad):
        service = make_service(backend, k=2, cache_capacity=16)
        service.query(small_points[0], at=1.0)
        points = small_points[:3].copy()
        points[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            service.insert(points, at=2.0)
        assert service.n_live == small_points.shape[0] and service.delta.n_updates == 0
        assert service.now == 1.0 and len(service.cache) == 1
        # The auto-id counter did not move either.
        assert service.insert(small_points[:1] + 9.0).tolist() == [small_points.shape[0]]

    def test_mutations_invalidate_cache(self, backend, small_points):
        service = make_service(backend, k=2, cache_capacity=16)
        q = small_points[0]
        service.query(q, at=0.0)
        rid = service.submit(q, at=0.1)
        assert next(r for r in service.records if r.request_id == rid).cache_hit
        service.insert((q + 1e-6)[None, :], at=0.2)
        rid2 = service.submit(q, at=0.3)
        service.flush()
        assert not next(r for r in service.records if r.request_id == rid2).cache_hit

    def test_insert_threshold_triggers_rebuild(self, backend, small_points):
        rng = np.random.default_rng(0)
        service = make_service(
            backend, rebuild_policy=RebuildPolicy(max_inserts=10, max_tombstones=100)
        )
        service.insert(rng.normal(size=(9, 3)))
        assert service.rebuilds == 0 and service.delta.n_inserted == 9
        service.insert(rng.normal(size=(1, 3)))
        assert service.rebuilds == 1
        assert service.delta.n_inserted == 0
        assert service.backend.n_points == small_points.shape[0] + 10

    def test_tombstone_threshold_triggers_rebuild(self, backend, small_points):
        service = make_service(
            backend, rebuild_policy=RebuildPolicy(max_inserts=1000, max_tombstones=4)
        )
        service.delete([1, 2, 3])
        assert service.rebuilds == 0
        service.delete([4])
        assert service.rebuilds == 1
        assert service.delta.n_tombstones == 0
        assert service.backend.n_points == small_points.shape[0] - 4

    def test_staleness_triggers_rebuild(self, backend, small_points):
        service = make_service(
            backend,
            rebuild_policy=RebuildPolicy(max_inserts=1000, max_tombstones=1000, max_staleness_s=5.0),
        )
        service.insert(np.zeros((1, 3)), at=0.0)
        service.submit(small_points[0], at=1.0)
        assert service.rebuilds == 0
        service.submit(small_points[1], at=6.0)  # staleness deadline passed
        assert service.rebuilds == 1

    def test_rebuild_busy_time_delays_queries(self, backend, small_points):
        service = make_service(
            backend,
            service_time=lambda n: 1.0,  # rebuild and batches take 1 s
            rebuild_policy=RebuildPolicy(max_inserts=1, max_tombstones=100),
        )
        service.insert(np.zeros((1, 3)), at=0.0)  # triggers a 1 s rebuild
        service.query(small_points[0], at=0.1)
        record = service.records[-1]
        assert record.completion == pytest.approx(2.0)  # 1.0 rebuild + 1.0 batch

    def test_n_live_tracks_mutations(self, backend, small_points):
        n0 = small_points.shape[0]
        service = make_service(backend)
        assert service.n_live == n0
        ids = service.insert(np.zeros((3, 3)))
        assert service.n_live == n0 + 3
        service.delete(ids[:1])
        service.delete([0])
        assert service.n_live == n0 + 1

    def test_empty_rebuild_rejected(self, small_points):
        tiny = LocalTreeBackend.fit(small_points[:2])
        service = make_service(tiny)
        service.delete([0, 1])
        with pytest.raises(RuntimeError):
            service.rebuild()


class TestForegroundRebuild:
    def test_buffered_insert_is_absorbed(self, small_points):
        service = make_service(LocalTreeBackend.fit(small_points), k=1)
        service.insert(np.full((1, 3), 30.0), ids=np.array([9_002]), at=0.0)
        service.delete([4], at=0.5)
        service.rebuild(at=1.0)
        assert service.delta.n_updates == 0  # fully folded in
        assert service.backend.n_points == small_points.shape[0]
        d, i = service.answer_batch(np.full((1, 3), 30.0))
        assert int(i[0, 0]) == 9_002 and d[0, 0] == 0.0
        assert int(service.answer_batch(small_points[4])[1][0, 0]) != 4


class TestReviewRegressions:
    """Regressions for review findings on the first service implementation."""

    def test_failed_delete_leaves_state_untouched(self, backend, small_points):
        # A delete batch containing an unknown id must be rejected whole:
        # no tombstones applied, cached answers still valid and exact.
        service = make_service(backend, k=2, cache_capacity=16)
        d0, i0 = service.query(small_points[0], at=0.0)
        with pytest.raises(KeyError):
            service.delete([int(i0[0]), 10_000_000])
        assert service.delta.n_tombstones == 0
        rid = service.submit(small_points[0], at=1.0)
        record = next(r for r in service.records if r.request_id == rid)
        assert record.cache_hit  # cache still warm...
        d1, i1 = service.result(rid)
        assert np.array_equal(i0, i1)  # ...and still correct (nothing deleted)

    def test_duplicate_ids_in_one_delete_rejected(self, backend):
        service = make_service(backend)
        # Id 3 is live: the batch is malformed, not the id unknown.
        with pytest.raises(ValueError, match="duplicate"):
            service.delete([3, 3])
        assert service.delta.n_tombstones == 0

    def test_auto_ids_never_reused_after_rebuild(self, small_points):
        service = make_service(LocalTreeBackend.fit(small_points))
        top = small_points.shape[0] - 1  # the current max id
        service.delete([top])
        service.rebuild()
        (new_id,) = service.insert(np.zeros((1, 3)))
        assert new_id > top  # deleted id must not be resurrected

    def test_caller_mutation_cannot_poison_cache(self, backend, small_points):
        service = make_service(backend, k=3, cache_capacity=16)
        d, i = service.query(small_points[0], at=0.0)
        i[:] = -42
        d2, i2 = service.query(small_points[0], at=1.0)
        assert not np.array_equal(i2, i)
        assert i2[0] == 0  # the point's own id, unharmed

    def test_deleting_entire_live_set_defers_rebuild(self, small_points):
        service = make_service(
            LocalTreeBackend.fit(small_points[:6]),
            rebuild_policy=RebuildPolicy(max_inserts=100, max_tombstones=6),
        )
        service.delete(np.arange(6))  # crosses the threshold with live set empty
        assert service.n_live == 0
        assert service.rebuilds == 0  # deferred, not crashed
        d, i = service.query(small_points[0])
        assert (i == -1).all()  # nothing to return, gracefully
        # The next insert makes the live set non-empty; a threshold crossing
        # can rebuild again.
        service.insert(np.ones((1, 3)))
        service.rebuild()
        assert service.backend.n_points == 1

    def test_negative_insert_ids_rejected(self, backend):
        # -1 is the padding sentinel of every answer path; a negative id
        # would be silently filtered out of all results.
        service = make_service(backend)
        with pytest.raises(ValueError, match="non-negative"):
            service.insert(np.zeros((1, 3)), ids=np.array([-1]))
        assert service.delta.n_inserted == 0

    def test_mutation_on_cold_cache_drops_nothing(self, backend):
        # A mutation on a never-queried service drops nothing.
        service = make_service(backend, cache_capacity=16)
        service.insert(np.zeros((1, 3)))
        assert service.cache_stats.full_clears == 0
        assert service.cache_stats.keys_dropped == 0

    def test_insert_far_away_keeps_cache_warm(self, backend, small_points):
        # Selective invalidation: an insert far outside every cached
        # k-th-distance ball must not evict those entries.
        service = make_service(backend, k=3, cache_capacity=16)
        q = small_points[0]
        service.query(q, at=0.0)
        service.insert(np.full((1, 3), 1e6), at=0.1)
        rid = service.submit(q, at=0.2)
        service.flush()
        assert next(r for r in service.records if r.request_id == rid).cache_hit
        assert service.cache_stats.keys_dropped == 0

    def test_delete_of_uncached_id_keeps_cache_warm(self, backend, small_points):
        # Deleting a point that appears in no cached answer drops nothing.
        service = make_service(backend, k=2, cache_capacity=16)
        _, ids_near = service.query(small_points[0], at=0.0)
        victim = next(i for i in range(2_000) if i not in set(int(x) for x in ids_near))
        service.delete([victim], at=0.1)
        rid = service.submit(small_points[0], at=0.2)
        service.flush()
        assert next(r for r in service.records if r.request_id == rid).cache_hit
        # Deleting a cached id does drop the entry.
        service.delete([int(ids_near[0])], at=0.3)
        assert service.cache_stats.keys_dropped == 1


class TestRetentionRing:
    def test_default_retention_keeps_everything_small(self, backend):
        service = make_service(backend)
        for step in range(10):
            service.query(np.zeros(3) + step * 0.01, at=step * 1.0)
        assert len(service.records) == 10
        assert service.records.n_evicted == 0

    def test_records_window_is_bounded(self, backend):
        service = make_service(backend, retention=8, cache_capacity=0)
        for step in range(30):
            service.query(np.zeros(3) + step * 0.01, at=step * 1.0)
        assert len(service.records) == 8
        assert service.records.n_total == 30
        assert service.records.n_evicted == 22
        # The window holds the most recent requests, slicing still works.
        assert [r.request_id for r in service.records[:3]] == [22, 23, 24]

    def test_aggregates_exact_across_evictions(self, backend):
        # Distinct latency per request via a deterministic service-time model.
        service = KNNService(
            backend, retention=4, cache_capacity=0, service_time=lambda n: 0.5
        )
        unbounded = KNNService(
            backend, cache_capacity=0, service_time=lambda n: 0.5
        )
        rng = np.random.default_rng(9)
        for step in range(25):
            q = rng.normal(size=3)
            at = float(step)
            service.query(q, at=at)
            unbounded.query(q, at=at)
        got = service.latency_summary()
        want = unbounded.latency_summary()
        for key in ("n_requests", "mean_latency_s", "max_latency_s", "qps",
                    "cache_hit_rate", "mean_batch_size"):
            assert got[key] == pytest.approx(want[key]), key

    def test_results_evicted_beyond_retention(self, backend):
        service = make_service(backend, retention=3, cache_capacity=0)
        ids = [service.query(np.zeros(3) + s * 0.01, at=float(s)) and s for s in range(6)]
        first = 0
        with pytest.raises(KeyError, match="evicted"):
            service.result(first)
        # Recent results are still fetchable.
        d, i = service.result(5)
        assert d.shape == (5,)

    def test_cache_hits_count_in_exact_aggregates(self, backend):
        service = make_service(backend, retention=2)
        q = np.zeros(3)
        service.query(q, at=0.0)
        for step in range(1, 7):
            service.query(q, at=float(step))  # cache hits
        summary = service.latency_summary()
        assert summary["n_requests"] == 7.0
        assert summary["cache_hit_rate"] == pytest.approx(6 / 7)

    def test_retention_validated(self, backend):
        with pytest.raises(ValueError):
            make_service(backend, retention=0)


class TestQueryShapes:
    """A query array of the wrong shape is refused with its shape named,
    never reinterpreted as a point of another dimensionality."""

    @staticmethod
    def _door(kind, points):
        from repro.fleet import KNNFleet

        if kind == "service":
            return KNNService(LocalTreeBackend.fit(points), k=3)
        return KNNFleet.build(points, n_shards=2, k=3)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3), (4,)])
    @pytest.mark.parametrize("kind", ["service", "fleet"])
    def test_single_query_door_names_the_shape(self, small_points, kind, shape):
        door = self._door(kind, small_points[:200])
        with pytest.raises(ValueError, match=f"shape {re.escape(str(shape))}"):
            door.query(np.zeros(shape))
        assert door.n_live == 200
        door.close()

    @pytest.mark.parametrize("kind", ["service", "fleet"])
    def test_one_point_in_a_row_is_one_query(self, small_points, kind):
        door = self._door(kind, small_points[:200])
        d, i = door.query(small_points[7][None, :])
        assert i[0] == 7 and d[0] == 0.0
        door.close()

    @pytest.mark.parametrize("shape", [(2, 2, 3), (1, 1, 1, 3)])
    def test_batch_door_names_the_shape(self, backend, shape):
        service = make_service(backend, k=3)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            service.answer_batch(np.zeros(shape))
