"""Fleet exactness guard: fleet answers vs a single KNNService vs brute force.

The acceptance bar of the fleet subsystem: for every tested configuration
(1-8 shards, 1-3 replicas, injected replica failures, across a fleet-wide
rebuild) the fleet's answer distances are byte-identical to a
single unsharded :class:`KNNService` over the same live set — and both
match brute force.  Ids are compared tie-tolerantly, because which of
several points exactly tied at the k-th distance is kept is unspecified
everywhere in this codebase.
"""

import numpy as np
import pytest

from repro.fleet import AdmissionPolicy, KNNFleet
from repro.fleet.planner import ShardPlanner
from repro.kdtree.query import brute_force_knn
from repro.service import KNNService, LocalTreeBackend, MicroBatchPolicy, RebuildPolicy


class LiveSetReference:
    """Brute-force mirror of the live set."""

    def __init__(self, points: np.ndarray, ids: np.ndarray) -> None:
        self.points = {int(i): p for i, p in zip(ids, points)}

    def insert(self, points, ids) -> None:
        for i, p in zip(ids, points):
            self.points[int(i)] = p

    def delete(self, ids) -> None:
        for i in np.asarray(ids).ravel():
            del self.points[int(i)]

    def knn(self, queries, k):
        ids = np.fromiter(self.points.keys(), dtype=np.int64, count=len(self.points))
        pts = (
            np.stack([self.points[int(i)] for i in ids])
            if ids.size
            else np.empty((0, queries.shape[1]))
        )
        return brute_force_knn(pts, ids, queries, k)


def assert_fleet_exact(fleet, single, reference, queries, k, at):
    """Fleet vs single-service distances byte-equal; both match brute force."""
    queries = np.atleast_2d(queries)
    ref_d, ref_i = reference.knn(queries, k)
    for row, q in enumerate(queries):
        at += 1.0
        d_f, i_f = fleet.query(q, k=k, at=at)
        d_s, i_s = single.query(q, k=k, at=at)
        assert np.array_equal(d_f, d_s), f"fleet != single service at row {row}"
        np.testing.assert_allclose(d_f, ref_d[row], err_msg=f"fleet != brute force at row {row}")
        # Every position whose distance is untied within the row must carry
        # the matching id (fleet vs single service AND vs brute force); only
        # exactly-tied positions are identity-unspecified.
        for col in np.flatnonzero(np.isfinite(ref_d[row])):
            if np.count_nonzero(np.isclose(ref_d[row], ref_d[row][col])) == 1:
                assert i_f[col] == ref_i[row][col], f"fleet id != brute force at ({row},{col})"
                assert i_f[col] == i_s[col], f"fleet id != single service at ({row},{col})"
    return at


@pytest.fixture(scope="module")
def base(small_points):
    ids = np.arange(small_points.shape[0], dtype=np.int64)
    return small_points, ids


@pytest.mark.parametrize(
    "n_shards,n_replicas,strategy",
    [
        (1, 1, "tree"),
        (2, 3, "tree"),
        (3, 1, "hash"),
        (4, 2, "tree"),
        (5, 1, "round_robin"),
        (8, 2, "tree"),
    ],
)
def test_randomized_interleavings_match_single_service(base, n_shards, n_replicas, strategy):
    points, ids = base
    rng = np.random.default_rng(n_shards * 100 + n_replicas)
    rebuild_policy = RebuildPolicy(max_inserts=40, max_tombstones=15)
    fleet = KNNFleet.build(
        points,
        ids=ids,
        n_shards=n_shards,
        n_replicas=n_replicas,
        strategy=strategy,
        k=4,
        rebuild_policy=rebuild_policy,
    )
    single = KNNService(
        LocalTreeBackend.fit(points, ids=ids),
        k=4,
        cache_capacity=0,
        rebuild_policy=rebuild_policy,
    )
    reference = LiveSetReference(points, ids)
    lo, hi = points.min(axis=0), points.max(axis=0)
    t = 0.0
    for step in range(25):
        t += 10.0
        op = rng.choice(["query", "insert", "delete"], p=[0.5, 0.3, 0.2])
        if op == "query":
            queries = rng.uniform(lo, hi, size=(int(rng.integers(1, 5)), points.shape[1]))
            t = assert_fleet_exact(fleet, single, reference, queries, int(rng.integers(1, 8)), t)
        elif op == "insert":
            fresh = rng.uniform(lo, hi, size=(int(rng.integers(1, 15)), points.shape[1]))
            new_ids = fleet.insert(fresh, at=t)
            same_ids = single.insert(fresh, ids=new_ids.copy(), at=t)
            assert np.array_equal(new_ids, same_ids)
            reference.insert(fresh, new_ids)
        else:
            live = np.fromiter(reference.points.keys(), dtype=np.int64)
            victims = rng.choice(live, size=min(int(rng.integers(1, 8)), live.size), replace=False)
            fleet.delete(victims, at=t)
            single.delete(victims, at=t)
            reference.delete(victims)
        # Inject a replica death now and then; the fleet must not notice.
        if n_replicas > 1 and step in (7, 15):
            shard = int(rng.integers(0, n_shards))
            group = fleet.groups[shard]
            if group.n_alive > 1:
                fleet.arm_replica_failure(shard, group.primary().replica_id)
    assert fleet.n_live == single.n_live == len(reference.points)
    # Final sweep.
    queries = rng.uniform(lo, hi, size=(15, points.shape[1]))
    assert_fleet_exact(fleet, single, reference, queries, 5, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_build_rejected_before_planning(base, bad, monkeypatch):
    points, ids = base
    points = points.copy()
    points[11, 2] = bad

    def plan(*args, **kwargs):
        raise AssertionError("the planner ran on a non-finite point set")

    monkeypatch.setattr(ShardPlanner, "plan", plan)
    with pytest.raises(ValueError, match="finite"):
        KNNFleet.build(points, ids=ids, n_shards=3, n_replicas=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_insert_rejected_before_any_shard_is_touched(base, bad):
    points, ids = base
    with KNNFleet.build(points, ids=ids, n_shards=3, n_replicas=2, k=5) as fleet:
        fresh = points[:4] + 0.5
        fresh[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fleet.insert(fresh, at=1.0)
        assert fleet.n_live == points.shape[0]
        assert all(r.service.delta.n_updates == 0 for g in fleet.groups for r in g.replicas)
        # Round-robin and auto-id counters did not move: the next insert
        # gets the ids the rejected one would have had.
        assert fleet.insert(points[:4] + 0.5, at=2.0).tolist() == list(range(2000, 2004))


@pytest.mark.parametrize("call", ["submit", "query"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected_before_anything_moves(base, call, bad):
    points, ids = base
    with KNNFleet.build(
        points, ids=ids, n_shards=3, k=5,
        batch_policy=MicroBatchPolicy(max_batch=100, max_delay_s=10.0),
        admission_policy=AdmissionPolicy(max_pending=2, mode="reject"),
    ) as fleet:
        fleet.submit(points[0], at=1.0)
        fleet.submit(points[1], at=1.5)
        target = fleet.target_batch_size()
        query = points[2].copy()
        query[1] = bad
        with pytest.raises(ValueError, match="finite"):
            getattr(fleet, call)(query, at=2.5)
        assert fleet.now == 1.5 and fleet.n_pending == 2
        assert fleet.target_batch_size() == target
        assert fleet.stats()["admission"]["rejected"] == 0
        assert fleet.router.stats.queries == 0  # nothing reached a shard
        # The request-id counter did not move either.
        assert fleet.submit(points[3], at=3.0) == 2


def test_exact_across_a_fleet_rebuild(base):
    # Queries answered over the buffered inserts, and again after every
    # shard folded them in, are byte-identical.
    points, ids = base
    rng = np.random.default_rng(77)
    fleet = KNNFleet.build(
        points, ids=ids, n_shards=4, n_replicas=2, k=5,
        service_time=lambda n: 50.0,  # rebuilds take 50 logical seconds
    )
    single = KNNService(LocalTreeBackend.fit(points, ids=ids), k=5, cache_capacity=0)
    reference = LiveSetReference(points, ids)
    fresh = rng.normal(size=(20, points.shape[1]))
    reference.insert(fresh, fleet.insert(fresh, at=1.0))
    single.insert(fresh, ids=np.arange(2000, 2020, dtype=np.int64), at=1.0)
    queries = points[rng.choice(points.shape[0], 10, replace=False)] + 0.02
    t = assert_fleet_exact(fleet, single, reference, queries, 5, 2.0)  # buffered
    fleet.rebuild(at=t)
    assert [g.rebuilds for g in fleet.groups] == [1, 1, 1, 1]
    for group in fleet.groups:
        first, peer = (r.service for r in group.replicas)
        assert peer.backend is first.backend and peer.version == first.version == 1
    # The fold absorbed the buffered inserts into the shard trees.
    assert all(r.service.delta.n_updates == 0 for g in fleet.groups for r in g.replicas)
    assert_fleet_exact(fleet, single, reference, queries, 5, t)  # folded


def test_replica_failures_never_change_answers(base):
    points, ids = base
    rng = np.random.default_rng(11)
    fleet = KNNFleet.build(points, ids=ids, n_shards=3, n_replicas=3, k=4)
    queries = rng.uniform(points.min(0), points.max(0), size=(12, points.shape[1]))
    baseline = [fleet.query(q, at=float(i)) for i, q in enumerate(queries)]
    # Kill one replica per shard outright, arm another to die mid-query.
    t = 100.0
    for shard in range(3):
        fleet.kill_replica(shard, 0)
        fleet.arm_replica_failure(shard, fleet.groups[shard].primary().replica_id)
    for i, q in enumerate(queries):
        d, ans_i = fleet.query(q, at=t + i)
        assert np.array_equal(d, baseline[i][0])
        assert np.array_equal(ans_i, baseline[i][1])
    assert all(g.n_alive >= 1 for g in fleet.groups)
