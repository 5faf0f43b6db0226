"""Router: pruned scatter-gather exactness and fan-out accounting."""

import numpy as np
import pytest

from repro.fleet import KNNFleet, ReplicaGroup, ShardUnavailableError
from repro.kdtree.query import brute_force_knn
from repro.service import KNNService, LocalTreeBackend


@pytest.fixture(scope="module")
def clustered():
    """Clustered data: most of a query's neighbour ball sits in one region."""
    rng = np.random.default_rng(17)
    centers = rng.uniform(-50, 50, size=(8, 3))
    pts = np.concatenate([c + rng.normal(scale=0.5, size=(250, 3)) for c in centers])
    return pts


def fleet_over(points, **kwargs):
    defaults = dict(n_shards=4, n_replicas=1, k=5)
    defaults.update(kwargs)
    return KNNFleet.build(points, **defaults)


class TestExactness:
    @pytest.mark.parametrize("strategy", ["tree", "hash", "round_robin"])
    def test_matches_brute_force(self, clustered, strategy):
        fleet = fleet_over(clustered, strategy=strategy)
        rng = np.random.default_rng(3)
        queries = clustered[rng.choice(clustered.shape[0], 40, replace=False)] + 0.05
        ref_d, _ = brute_force_knn(clustered, np.arange(clustered.shape[0]), queries, 5)
        d, i = fleet.router.answer(queries, 5)
        np.testing.assert_allclose(d, ref_d)

    def test_underfull_owner_falls_back_to_broadcast(self, clustered):
        # k larger than any single shard forces infinite r' for some owner
        # answers; the router must still return the exact global top-k.
        fleet = fleet_over(clustered, n_shards=8, k=5)
        k = 300  # > 250 points per cluster/shard
        q = clustered[:3]
        ref_d, _ = brute_force_knn(clustered, np.arange(clustered.shape[0]), q, k)
        d, i = fleet.router.answer(q, k)
        np.testing.assert_allclose(d, ref_d)

    @pytest.mark.parametrize("n_shards", [2, 4, 7])
    def test_two_calls_per_shard_and_single_service_bytes(self, n_shards):
        # The whole protocol is one owner call and at most one scatter call
        # per shard, and its distances are a single unsharded service's,
        # bit for bit — on a lattice the median cuts run between lattice
        # planes, so exact ties at the k-th distance sit on both sides of a
        # region boundary.
        k = 3
        rng = np.random.default_rng(5)
        lattice = np.stack(np.meshgrid(*[np.arange(-5.0, 6.0)] * 3), axis=-1).reshape(-1, 3)
        points = np.concatenate([lattice, rng.normal(scale=3.0, size=(500, 3))])
        queries = np.concatenate([lattice, rng.uniform(-6, 6, size=(100, 3))])
        fleet = fleet_over(points, n_shards=n_shards, k=k)
        single = KNNService(LocalTreeBackend.fit(points), k=k, cache_capacity=0)
        ref_d, _ = single.answer_batch(queries, k=k)

        kth = ref_d[: lattice.shape[0], k - 1 : k]
        tied = np.linalg.norm(lattice[:, None, :] - points[None, :, :], axis=2) == kth
        owners = fleet.plan.owner_of(points)
        assert any(np.unique(owners[row]).size > 1 for row in tied)

        d, i = fleet.router.answer(queries, k)
        assert np.array_equal(d, ref_d)
        calls = fleet.stats()["dispatch"]
        assert calls["submitted"] <= 2 * n_shards
        assert calls["completed"] == calls["submitted"]


    def test_lattice_ids_do_not_depend_on_batching(self):
        # Every row has exact ties at its k-th distance.  One query per
        # call reaches the shards as one-row batches (row-by-row engine),
        # one burst flush as a few hundred rows (lockstep engine); the tie
        # rule is the same, so the answers are the same bytes, ids included.
        k = 8
        rng = np.random.default_rng(9)
        lattice = np.stack(np.meshgrid(*[np.arange(-5.0, 6.0)] * 3), axis=-1).reshape(-1, 3)
        queries = rng.integers(-10, 11, size=(200, 3)) / 2.0  # lattice points and midpoints
        with fleet_over(lattice, k=k) as one_by_one, fleet_over(lattice, k=k) as burst:
            single = [one_by_one.query(q) for q in queries]
            request_ids = [burst.submit(q, at=0.0) for q in queries]
            assert burst.flush() == len(queries)  # one batch, not a trickle
            for (d, i), request_id in zip(single, request_ids):
                burst_d, burst_i = burst.result(request_id)
                assert d.tobytes() == burst_d.tobytes()
                assert i.tobytes() == burst_i.tobytes()


class TestFanout:
    def test_tree_plan_prunes_on_clustered_data(self, clustered):
        fleet = fleet_over(clustered, n_shards=4)
        queries = clustered[::10] + 0.01  # near cluster mass
        fleet.router.answer(queries, 5)
        stats = fleet.router.stats
        assert stats.mean_fanout < fleet.n_shards  # region routing provably prunes
        assert stats.owner_only > 0
        assert stats.broadcasts == 0

    def test_phase_wall_time_accounting(self, clustered):
        # Scatter-gather splits its wall time into the owner and scatter
        # phases; broadcast charges everything to scatter.  Both fields
        # surface in as_dict and only ever grow.
        fleet = fleet_over(clustered, n_shards=4)
        stats = fleet.router.stats
        assert stats.owner_seconds == 0.0 and stats.scatter_seconds == 0.0
        fleet.router.answer(clustered[::10] + 0.01, 5)
        assert stats.owner_seconds > 0.0
        assert stats.scatter_seconds >= 0.0
        first_owner = stats.owner_seconds
        fleet.router.answer(clustered[::10] + 0.01, 5)
        assert stats.owner_seconds > first_owner
        flat = stats.as_dict()
        assert flat["owner_seconds"] == stats.owner_seconds
        assert flat["scatter_seconds"] == stats.scatter_seconds

        broadcast = fleet_over(clustered, n_shards=4, strategy="hash")
        broadcast.router.answer(clustered[:5], 5)
        assert broadcast.router.stats.owner_seconds == 0.0
        assert broadcast.router.stats.scatter_seconds > 0.0

    def test_nonspatial_plan_always_broadcasts(self, clustered):
        fleet = fleet_over(clustered, n_shards=4, strategy="hash")
        queries = clustered[::40]
        fleet.router.answer(queries, 5)
        stats = fleet.router.stats
        assert stats.mean_fanout == fleet.n_shards
        assert stats.broadcasts == queries.shape[0]


class TestReplicaFailover:
    def test_mid_query_death_retries_transparently(self, clustered):
        fleet = fleet_over(clustered, n_shards=2, n_replicas=3)
        q = clustered[:5]
        d_before, i_before = fleet.router.answer(q, 5)
        for shard in range(2):
            # Arm whichever replica the least-loaded pick will choose next,
            # so the death happens mid-query and the retry path runs.
            fleet.arm_replica_failure(shard, fleet.groups[shard].primary().replica_id)
        d_after, i_after = fleet.router.answer(q, 5)
        assert np.array_equal(d_before, d_after)
        assert np.array_equal(i_before, i_after)
        assert sum(g.retries for g in fleet.groups) >= 1
        # Every group that was actually queried lost its armed replica and
        # kept serving; a group the pruning skipped keeps all three alive.
        for g in fleet.groups:
            assert g.n_alive == 3 - g.deaths
            assert g.retries == g.deaths

    def test_death_inside_scatter_call_retries_on_peer_once(self, clustered):
        fleet = fleet_over(clustered, n_shards=2, n_replicas=2)
        q = clustered[fleet.plan.owner_of(clustered) == 0][:4]
        k = 1200  # more than shard 0 holds: every row scatters to shard 1
        d_before, i_before = fleet.router.answer(q, k)
        calls_before = fleet.stats()["dispatch"]["submitted"]
        fleet.arm_replica_failure(1, fleet.groups[1].primary().replica_id)
        d_after, i_after = fleet.router.answer(q, k)
        assert np.array_equal(d_before, d_after)
        assert np.array_equal(i_before, i_after)
        scatter = fleet.groups[1]
        assert (scatter.deaths, scatter.retries, scatter.n_alive) == (1, 1, 1)
        assert (fleet.groups[0].deaths, fleet.groups[0].retries) == (0, 0)
        # The retry happened inside the one scatter call.
        dispatch = fleet.stats()["dispatch"]
        assert dispatch["submitted"] - calls_before == 2
        assert dispatch["failed"] == 0

    def test_reads_balance_across_replicas(self, clustered):
        fleet = fleet_over(clustered, n_shards=1, n_replicas=2)
        for step in range(6):
            fleet.router.answer(clustered[step : step + 1], 3)
        served = [r.queries_served for r in fleet.groups[0].replicas]
        assert served == [3, 3]  # least-loaded pick alternates

    def test_whole_shard_down_is_loud(self, clustered):
        fleet = fleet_over(clustered, n_shards=2, n_replicas=1)
        fleet.kill_replica(0, 0)
        owned_by_dead = clustered[fleet.plan.owner_of(clustered) == 0][:2]
        with pytest.raises(ShardUnavailableError):
            fleet.router.answer(owned_by_dead, 5)

    def test_mutations_against_dead_shard_are_loud_and_atomic(self, clustered):
        # A fully-dead shard must reject mutations instead of silently
        # dropping the data — and no other shard may be touched either.
        fleet = fleet_over(clustered, n_shards=2, n_replicas=1)
        fleet.kill_replica(0, 0)
        spread = np.stack([clustered.min(axis=0), clustered.max(axis=0)])
        assert len(set(fleet.plan.owner_of(spread))) == 2  # both shards targeted
        n_before = fleet.groups[1].n_live
        with pytest.raises(ShardUnavailableError):
            fleet.insert(spread, at=1.0)
        assert fleet.groups[1].n_live == n_before  # healthy shard untouched
        live_on_dead = np.flatnonzero(fleet.plan.assignment == 0)[:1]
        with pytest.raises(ShardUnavailableError):
            fleet.delete(live_on_dead, at=2.0)
        assert int(live_on_dead[0]) in fleet._id_to_shard  # still tracked

    def test_failed_dispatch_requeues_batch_until_heal(self, clustered):
        fleet = fleet_over(clustered, n_shards=2, n_replicas=2)
        owned_by_0 = clustered[fleet.plan.owner_of(clustered) == 0][0]
        for replica in range(2):
            fleet.kill_replica(0, replica)
        rid = fleet.submit(owned_by_0, at=1.0)
        with pytest.raises(ShardUnavailableError):
            fleet.flush(at=2.0)
        assert fleet.n_pending == 1  # the batch survived the failed dispatch
        fleet.groups[0].replicas[0].alive = True  # bring one replica back
        fleet.flush(at=3.0)
        d, i = fleet.result(rid)  # answered after recovery, not lost
        assert np.isfinite(d).all()

    def test_dead_scatter_shard_rolls_back_and_requeues(self, clustered):
        # The owner call succeeds and the *scatter* call finds its shard
        # fully dead: the owner's work must be un-counted with the rest.
        fleet = fleet_over(clustered, n_shards=2, n_replicas=2, k=1200)
        owned_by_0 = clustered[fleet.plan.owner_of(clustered) == 0]
        fleet.query(owned_by_0[0], at=1.0)
        stats_before = fleet.router.stats.as_dict()
        load_before = [r.queries_served for g in fleet.groups for r in g.replicas]
        for replica in range(2):
            fleet.kill_replica(1, replica)
        rid = fleet.submit(owned_by_0[1], at=2.0)
        with pytest.raises(ShardUnavailableError):
            fleet.flush(at=3.0)
        stats_after = fleet.router.stats.as_dict()
        for key in ("queries", "shard_visits", "owner_only", "broadcasts"):
            assert stats_after[key] == stats_before[key]
        assert [r.queries_served for g in fleet.groups for r in g.replicas] == load_before
        assert fleet.n_pending == 1
        dispatch = fleet.stats()["dispatch"]
        assert dispatch["failed"] == dispatch["submitted"] - dispatch["completed"] > 0
        fleet.groups[1].replicas[0].alive = True
        fleet.flush(at=4.0)
        d, _ = fleet.result(rid)
        assert np.isfinite(d[: clustered.shape[0]]).all()

    def test_stalled_batch_does_not_wedge_healthy_shards(self, clustered):
        # One poisoned batch (owner shard fully dead) must not block
        # traffic, mutations or healing on the rest of the fleet.
        fleet = fleet_over(clustered, n_shards=2, n_replicas=2)
        owned_by_0 = clustered[fleet.plan.owner_of(clustered) == 0]
        for replica in range(2):
            fleet.kill_replica(0, replica)
        fleet.kill_replica(1, 0)  # shard 1 degraded but alive
        stuck = fleet.submit(owned_by_0[0], at=1.0)
        with pytest.raises(ShardUnavailableError):
            fleet.flush(at=2.0)
        # Later operations against healthy shards proceed (deadline flushes
        # pause while stalled instead of re-raising).
        owned_by_1 = clustered[fleet.plan.owner_of(clustered) == 1]
        rid = fleet.submit(owned_by_1[0], at=10.0)
        assert rid not in fleet._rejected
        # Duplicate coordinates of a shard-1 point under a fresh id: the
        # insert provably routes to the healthy shard.
        new_ids = fleet.insert(owned_by_1[1][None, :], at=11.0)
        fleet.delete(new_ids, at=12.0)
        # heal() skips the unrecoverable group but repairs shard 1.
        assert fleet.heal(at=13.0) == 1
        assert fleet.groups[1].n_alive == 2
        assert fleet.groups[0].n_alive == 0
        with pytest.raises(KeyError):
            fleet.result(stuck)  # still pending, not silently lost

    def test_heal_reseeds_from_live_peer(self, clustered):
        fleet = fleet_over(clustered, n_shards=2, n_replicas=2)
        fleet.insert(np.random.default_rng(0).normal(size=(5, 3)), at=1.0)
        fleet.kill_replica(0, 1)
        fleet.delete(fleet.insert(np.zeros((1, 3)), at=2.0), at=3.0)  # mutate while down
        assert fleet.heal(at=4.0) == 1
        group = fleet.groups[0]
        assert group.n_alive == 2
        # The healed replica serves the shard's one service, writes made
        # while it was down included.
        assert all(r.service is group.service for r in group.replicas)
        q = clustered[:4]
        d0, i0 = group.replicas[0].answer(q, 5, None)
        d1, i1 = group.replicas[1].answer(q, 5, None)
        assert np.array_equal(d0, d1) and np.array_equal(i0, i1)

    def test_empty_group_rejected(self, clustered):
        service = KNNService(LocalTreeBackend.fit(clustered[:50]), cache_capacity=0)
        with pytest.raises(ValueError, match="at least one replica"):
            ReplicaGroup(0, service, n_replicas=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda fleet: fleet.kill_replica(0, -1),
            lambda fleet: fleet.kill_replica(0, 2),
            lambda fleet: fleet.kill_replica(-1, 0),
            lambda fleet: fleet.arm_replica_failure(1, -2),
            lambda fleet: fleet.arm_replica_failure(3, 0),
            lambda fleet: fleet.rebuild(shard=-1, at=5.0),
            lambda fleet: fleet.rebuild(shard=3, at=5.0),
        ],
    )
    def test_shard_and_replica_indices_are_range_checked(self, clustered, call):
        fleet = fleet_over(clustered, n_shards=3, n_replicas=2)
        fleet.insert(np.zeros((1, 3)), at=1.0)
        with pytest.raises(ValueError, match=r"must be in \[0, [23]\)"):
            call(fleet)
        # Nothing moved: no replica died or was armed, no event, no clock.
        assert all(g.n_alive == 2 and g.deaths == 0 for g in fleet.groups)
        assert not any(r._armed_failure for g in fleet.groups for r in g.replicas)
        assert fleet.events.counts() == {} and fleet.now == 1.0
        assert [g.rebuilds for g in fleet.groups] == [0, 0, 0]
