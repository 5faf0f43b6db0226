"""Dispatch plane: serial/thread dispatchers and the byte-equality guard.

The acceptance bar of the concurrent dispatch plane: a fleet on a
:class:`ThreadDispatcher` — owner and scatter calls racing on a pool,
hedged replica reads armed, replicas dying mid-query, inserts and deletes
interleaved, a background rebuild hot-swapping mid-trace — answers with
the *same bytes* (distances AND ids) as the same fleet on the default
:class:`SerialDispatcher`.  Completion order may only move wall-clock.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster.executor import InlineExecutor, ThreadExecutor
from repro.fleet import (
    KNNFleet,
    ReplicaGroup,
    SerialDispatcher,
    ShardCall,
    ThreadDispatcher,
    make_dispatcher,
)
from repro.fleet.dispatch import DISPATCHER_ENV
from repro.fleet.replica import _MIN_HEDGE_SAMPLES, Replica
from repro.service import KNNService, LocalTreeBackend


class TestSerialDispatcher:
    def test_executes_at_submit_in_submission_order(self):
        ran = []
        disp = SerialDispatcher()
        futs = [
            disp.submit(ShardCall(s, ran.append, (s,))) for s in (3, 0, 2, 1)
        ]
        assert ran == [3, 0, 2, 1]
        assert all(f.done() for f in futs)

    def test_exception_raises_at_submit_site(self):
        disp = SerialDispatcher()

        def boom():
            raise RuntimeError("shard-lane failure")

        with pytest.raises(RuntimeError, match="shard-lane failure"):
            disp.submit(ShardCall(0, boom))
        assert disp.stats.failed == 1

    def test_hedge_lane_sets_exception_on_future(self):
        disp = SerialDispatcher()

        def boom():
            raise RuntimeError("replica-lane failure")

        fut = disp.submit_hedge(ShardCall(0, boom))
        assert isinstance(fut.exception(), RuntimeError)
        assert disp.stats.hedge_submitted == 1

    def test_stats_counters(self):
        disp = SerialDispatcher()
        for _ in range(3):
            disp.submit(ShardCall(0, lambda: 1))
        disp.submit_hedge(ShardCall(0, lambda: 2))
        s = disp.stats.as_dict()
        assert s["submitted"] == 3 and s["completed"] == 3
        assert s["hedge_submitted"] == 1
        # Serial: one call in flight at a time, ever.
        assert s["max_queue_depth"] == 1
        assert not disp.concurrent


class TestMakeDispatcher:
    @pytest.mark.parametrize("spec", ["serial", "sync", ""])
    def test_serial_specs(self, spec):
        assert isinstance(make_dispatcher(spec), SerialDispatcher)

    @pytest.mark.parametrize("spec", ["thread", "threads", "threaded"])
    def test_thread_specs(self, spec):
        disp = make_dispatcher(spec, n_workers=2)
        try:
            assert isinstance(disp, ThreadDispatcher)
            assert disp.n_workers == 2
        finally:
            disp.close()

    def test_spec_embedded_worker_count_wins(self):
        disp = make_dispatcher("thread:3", n_workers=7)
        try:
            assert disp.n_workers == 3
        finally:
            disp.close()

    def test_instance_passes_through(self):
        disp = SerialDispatcher()
        assert make_dispatcher(disp) is disp

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown dispatcher"):
            make_dispatcher("carrier-pigeon")

    def test_non_string_spec_raises(self):
        with pytest.raises(TypeError):
            make_dispatcher(42)

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.delenv(DISPATCHER_ENV, raising=False)
        assert isinstance(make_dispatcher(None), SerialDispatcher)
        monkeypatch.setenv(DISPATCHER_ENV, "thread:2")
        disp = make_dispatcher(None)
        try:
            assert isinstance(disp, ThreadDispatcher)
            assert disp.n_workers == 2
        finally:
            disp.close()

    def test_fleet_build_consults_env(self, small_points, monkeypatch):
        monkeypatch.setenv(DISPATCHER_ENV, "thread:2")
        fleet = KNNFleet.build(small_points[:300], n_shards=2, k=3)
        try:
            assert fleet.dispatcher.name == "thread"
            d, i = fleet.query(small_points[0], k=3, at=1.0)
            assert d.shape == (3,)
        finally:
            fleet.close()


class TestThreadDispatcher:
    def test_runs_calls_truly_concurrently(self):
        # Both calls must be in flight at once for the barrier to release;
        # a serial dispatcher would deadlock here (hence the timeout).
        barrier = threading.Barrier(2, timeout=30.0)
        with ThreadDispatcher(n_workers=2) as disp:
            futs = [
                disp.submit(ShardCall(s, barrier.wait)) for s in range(2)
            ]
            results = [f.result(timeout=30.0) for f in futs]
        assert sorted(results) == [0, 1]
        assert disp.stats.max_queue_depth == 2

    def test_call_hook_fires_on_shard_lane_only(self):
        seen = []
        with ThreadDispatcher(n_workers=1, call_hook=seen.append) as disp:
            disp.submit(ShardCall(5, lambda: None)).result(timeout=30.0)
            disp.submit_hedge(ShardCall(7, lambda: None)).result(timeout=30.0)
        assert seen == [5]

    def test_exception_surfaces_at_result_not_submit(self):
        def boom():
            raise RuntimeError("late failure")

        with ThreadDispatcher(n_workers=1) as disp:
            fut = disp.submit(ShardCall(0, boom))
            with pytest.raises(RuntimeError, match="late failure"):
                fut.result(timeout=30.0)
        assert disp.stats.failed == 1

    def test_inline_executor_degrades_to_non_concurrent(self):
        with ThreadDispatcher(executor=InlineExecutor()) as disp:
            assert not disp.concurrent
            assert disp.submit(ShardCall(0, lambda: 9)).result() == 9

    def test_rejects_process_executor(self):
        with pytest.raises(TypeError, match="thread-based"):
            ThreadDispatcher(executor="process")

    def test_submit_after_close_raises(self):
        disp = ThreadDispatcher(n_workers=1)
        disp.close()
        disp.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            disp.submit(ShardCall(0, lambda: None))


# ---------------------------------------------------------------------------
# Hedged replica reads
# ---------------------------------------------------------------------------


def _make_group(points, n_replicas=2, hedge_after=None, k=4):
    replicas = [
        Replica(0, r, KNNService(LocalTreeBackend.fit(points), k=k, cache_capacity=0))
        for r in range(n_replicas)
    ]
    return ReplicaGroup(0, replicas, hedge_after=hedge_after)


def _slow_service(replica, delay):
    """Make a replica's service sleep before answering (wall-clock only)."""
    orig = replica.service.answer_batch

    def slowed(queries, k=None, at=None):
        time.sleep(delay)
        return orig(queries, k=k, at=at)

    replica.service.answer_batch = slowed


class TestHedgedReads:
    def test_percentile_deadline_needs_min_samples(self, small_points):
        group = _make_group(small_points[:200], hedge_after="p50")
        assert group._hedge_deadline() is None  # no samples yet
        for _ in range(_MIN_HEDGE_SAMPLES):
            group._note_latency(0.010)
        assert group._hedge_deadline() == pytest.approx(0.010)

    def test_float_deadline_is_fixed(self, small_points):
        group = _make_group(small_points[:200], hedge_after=0.25)
        assert group._hedge_deadline() == 0.25
        group.hedge_after = None
        assert group._hedge_deadline() is None

    def test_serial_dispatcher_ignores_deadline(self, small_points):
        pts = small_points[:200]
        group = _make_group(pts, hedge_after=1e-9)
        d, i = group.answer(pts[:3], 4, dispatcher=SerialDispatcher())
        assert group.hedges == 0  # degraded cleanly to the serial path
        assert d.shape == (3, 4)

    def test_slow_primary_loses_to_hedge(self, small_points):
        pts = small_points[:200]
        group = _make_group(pts, hedge_after=0.05)
        # Replica 0 is the least-loaded pick (lowest id on ties) — slow it
        # far past the deadline so the hedge on replica 1 must win.
        _slow_service(group.replicas[0], delay=0.5)
        with ThreadDispatcher(n_workers=1) as disp:
            d, i = group.answer(pts[:2], 4, dispatcher=disp)
            ref_d, ref_i = group.replicas[1].service.query(pts[0], k=4)
        assert np.array_equal(d[0], ref_d) and np.array_equal(i[0], ref_i)
        assert group.hedges == 1
        assert group.hedge_wins == 1
        # The discarded slow attempt releases its reservation eventually.
        deadline = time.time() + 5.0
        while any(r.in_flight for r in group.replicas) and time.time() < deadline:
            time.sleep(0.01)
        assert all(r.in_flight == 0 for r in group.replicas)

    def test_discard_cancels_unstarted_attempt(self, small_points):
        # A losing hedge that never started is cancelled: the reservation
        # taken by _reserve is released here and the cancel is counted.
        from concurrent.futures import Future

        group = _make_group(small_points[:200])
        replica = group.replicas[1]
        replica.in_flight = 1
        fut = Future()  # PENDING: cancellable, exactly like a queued attempt
        group._discard([(fut, replica, None)])
        assert fut.cancelled()
        assert group.hedge_cancels == 1
        assert replica.in_flight == 0

    def test_discard_running_attempt_keeps_own_accounting(self, small_points):
        # A losing hedge already running cannot be cancelled; its eventual
        # mid-flight death still lands in the counters exactly once, via
        # the done callback — and a clean finish lands nowhere.
        from concurrent.futures import Future

        from repro.fleet.replica import ReplicaDeadError

        group = _make_group(small_points[:200])
        replica = group.replicas[1]
        dying = Future()
        assert dying.set_running_or_notify_cancel()
        group._discard([(dying, replica, None)])
        assert group.hedge_cancels == 0
        dying.set_exception(ReplicaDeadError("mid-flight", died_now=True))
        assert group.retries == 1 and group.deaths == 1
        clean = Future()
        assert clean.set_running_or_notify_cancel()
        group._discard([(clean, replica, None)])
        clean.set_result(("d", "i"))
        assert group.retries == 1 and group.deaths == 1

    def test_hedged_death_retries_and_counts_once(self, small_points):
        pts = small_points[:200]
        group = _make_group(pts, n_replicas=3, hedge_after=0.5)
        group.replicas[0].arm_failure()
        with ThreadDispatcher(n_workers=1) as disp:
            d, i = group.answer(pts[:2], 4, dispatcher=disp)
        assert d.shape == (2, 4)
        assert group.deaths == 1 and group.retries == 1
        assert not group.replicas[0].alive and group.n_alive == 2

    def test_hedged_answers_match_serial(self, small_points):
        pts = small_points[:400]
        queries = pts[:20] + 0.01
        serial_group = _make_group(pts)
        serial = [serial_group.answer(q[None, :], 5) for q in queries]
        hedged_group = _make_group(pts, hedge_after=1e-9)  # hedge every read
        with ThreadDispatcher(n_workers=2) as disp:
            for (sd, si), q in zip(serial, queries):
                hd, hi = hedged_group.answer(q[None, :], 5, dispatcher=disp)
                assert np.array_equal(sd, hd) and np.array_equal(si, hi)
        assert hedged_group.hedges > 0


# ---------------------------------------------------------------------------
# The exactness guard: serial vs threaded fleets, bytes compared
# ---------------------------------------------------------------------------


def _scripted_workload(fleet: KNNFleet, points: np.ndarray, seed: int):
    """One deterministic serve/mutate/fail/rebuild script; returns answers.

    The script hits every hazard the dispatch plane must not change:
    interleaved inserts and deletes (cache invalidation), replicas armed to
    die mid-query, a background rebuild begun mid-trace and hot-swapped
    while queries flow, and a final drain through the micro-batch queue.
    """
    rng = np.random.default_rng(seed)
    lo, hi = points.min(axis=0), points.max(axis=0)
    answers = []
    t = 0.0
    inserted = []
    for step in range(30):
        t += 10.0
        op = ("query", "insert", "query", "delete", "query")[step % 5]
        if op == "query":
            batch = rng.uniform(lo, hi, size=(int(rng.integers(1, 5)), points.shape[1]))
            for q in batch:
                t += 1.0
                answers.append(fleet.query(q, k=int(rng.integers(2, 7)), at=t))
        elif op == "insert":
            fresh = rng.uniform(lo, hi, size=(int(rng.integers(1, 12)), points.shape[1]))
            inserted.append(fleet.insert(fresh, at=t))
        else:
            pool = np.concatenate(inserted) if inserted else np.arange(10, dtype=np.int64)
            victims = rng.choice(pool, size=min(3, pool.size), replace=False)
            fleet.delete(np.unique(victims), at=t)
            inserted = [np.setdiff1d(ids, victims) for ids in inserted]
        if step == 9:
            # Kill one replica outright, arm another to die mid-query.
            fleet.kill_replica(0, 0)
            fleet.arm_replica_failure(1, fleet.groups[1].primary().replica_id)
        if step == 17:
            fleet.begin_rebuild(at=t)  # queries below run mid-rebuild
        if step == 23:
            for group in fleet.groups:
                for replica in group.replicas:
                    replica.service.finish_rebuild()
    # Finish through the micro-batch queue: submit, then drain.
    queries = rng.uniform(lo, hi, size=(12, points.shape[1]))
    rids = [fleet.submit(q, at=t + 1 + j) for j, q in enumerate(queries)]
    fleet.drain(at=t + 50.0)
    answers.extend(fleet.result(r) for r in rids)
    return answers


@pytest.mark.parametrize(
    "dispatcher,hedge_after",
    [
        ("thread:4", None),
        ("thread:4", 1e-9),  # hedge every read: cancels/discards in play
        ("thread:2", "p50"),  # percentile deadline arms mid-trace
    ],
)
def test_threaded_fleet_byte_identical_to_serial(small_points, dispatcher, hedge_after):
    """≥4 shards x 2 replicas x failures x interleaved updates x mid-query
    rebuild: every distance and id matches the serial dispatcher exactly."""
    points = small_points[:1200]
    ids = np.arange(points.shape[0], dtype=np.int64)
    answers = {}
    for spec, hedge in (("serial", None), (dispatcher, hedge_after)):
        fleet = KNNFleet.build(
            points, ids=ids, n_shards=4, n_replicas=2, k=5,
            dispatcher=spec, hedge_after=hedge,
        )
        try:
            answers[spec] = _scripted_workload(fleet, points, seed=1234)
            assert fleet.stats()["dispatch"]["dispatcher"] == spec.split(":")[0]
        finally:
            fleet.close()
    serial, threaded = answers["serial"], answers[dispatcher]
    assert len(serial) == len(threaded)
    for row, ((d_s, i_s), (d_t, i_t)) in enumerate(zip(serial, threaded)):
        assert np.array_equal(d_s, d_t), f"distances diverge at answer {row}"
        assert np.array_equal(i_s, i_t), f"ids diverge at answer {row}"


def test_broadcast_barrier_forces_all_shards_concurrent(small_points):
    """Deterministic interleaving: a barrier in the call hook only releases
    when all four broadcast shard calls are in flight at once — proving the
    router overlaps the whole fan-out — and the answers still match serial."""
    points = small_points[:800]
    n_shards = 4
    barrier = threading.Barrier(n_shards, timeout=30.0)
    queries = points[:6] + 0.02

    serial_fleet = KNNFleet.build(points, n_shards=n_shards, strategy="hash", k=4)
    serial = [serial_fleet.query(q, at=float(j)) for j, q in enumerate(queries)]
    serial_fleet.close()

    disp = ThreadDispatcher(n_workers=n_shards, call_hook=lambda shard: barrier.wait())
    fleet = KNNFleet.build(
        points, n_shards=n_shards, strategy="hash", k=4, dispatcher=disp
    )
    try:
        for j, ((d_s, i_s), q) in enumerate(zip(serial, queries)):
            d_t, i_t = fleet.query(q, at=float(j))
            assert np.array_equal(d_s, d_t) and np.array_equal(i_s, i_t)
        assert barrier.broken is False
        assert fleet.stats()["dispatch"]["max_queue_depth"] == n_shards
    finally:
        fleet.close()
        disp.close()


def test_reversed_completion_order_changes_nothing(small_points):
    """Adversarial completion order: the hook delays each shard call so the
    last-submitted call finishes first, inverting the harvest's arrival
    order — answers must still be byte-identical to serial dispatch."""
    points = small_points[:1000]
    queries = points[:10] + 0.015

    serial_fleet = KNNFleet.build(points, n_shards=4, n_replicas=2, k=5)
    serial = [serial_fleet.query(q, at=float(j)) for j, q in enumerate(queries)]
    serial_fleet.close()

    def stagger(shard: int) -> None:
        time.sleep(0.002 * (4 - shard))  # higher shards land first

    disp = ThreadDispatcher(n_workers=4, call_hook=stagger)
    fleet = KNNFleet.build(
        points, n_shards=4, n_replicas=2, k=5, dispatcher=disp
    )
    try:
        for j, ((d_s, i_s), q) in enumerate(zip(serial, queries)):
            d_t, i_t = fleet.query(q, at=float(j))
            assert np.array_equal(d_s, d_t) and np.array_equal(i_s, i_t)
    finally:
        fleet.close()
        disp.close()


def test_fleet_stats_surface_dispatch_counters(small_points):
    points = small_points[:400]
    fleet = KNNFleet.build(points, n_shards=2, k=3, dispatcher="thread:2")
    try:
        fleet.query(points[0], at=1.0)
        stats = fleet.stats()
        dispatch = stats["dispatch"]
        assert dispatch["dispatcher"] == "thread"
        assert dispatch["submitted"] >= 1
        assert dispatch["completed"] == dispatch["submitted"]
        for key in ("hedges", "hedge_wins", "hedge_cancels"):
            assert key in dispatch
        assert all("hedges" in row for row in stats["shards"])
    finally:
        fleet.close()


def test_fleet_owns_spec_built_dispatcher_but_not_instances(small_points):
    points = small_points[:300]
    fleet = KNNFleet.build(points, n_shards=2, k=3, dispatcher="thread:2")
    owned = fleet.dispatcher
    fleet.close()
    with pytest.raises(RuntimeError, match="closed"):
        owned.submit(ShardCall(0, lambda: None))

    shared = ThreadDispatcher(n_workers=2)
    fleet = KNNFleet.build(points, n_shards=2, k=3, dispatcher=shared)
    fleet.close()
    try:  # caller-owned dispatcher survives the fleet
        assert shared.submit(ShardCall(0, lambda: 7)).result(timeout=30.0) == 7
    finally:
        shared.close()
