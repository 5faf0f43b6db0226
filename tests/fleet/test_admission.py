"""Admission control: bounded pending queue, shed/reject ledger, stats."""

import numpy as np
import pytest

from repro.fleet import AdmissionPolicy, KNNFleet, RequestRejectedError


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(23).normal(size=(600, 3))


def slow_fleet(points, policy, max_batch=64):
    """Fleet whose batches cost 1000s: the queue actually fills up."""
    from repro.service import MicroBatchPolicy

    return KNNFleet.build(
        points,
        n_shards=2,
        k=3,
        admission_policy=policy,
        batch_policy=MicroBatchPolicy(max_batch=max_batch, min_batch=max_batch, max_delay_s=1e9),
        service_time=lambda n: 1000.0,
    )


class TestPolicyValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(mode="drop-table")


class TestInsertAtomicity:
    def test_negative_build_ids_rejected(self, points):
        # -1 is the answer-path padding sentinel: a negative id would be
        # silently masked out of every merged result.
        with pytest.raises(ValueError, match="non-negative"):
            KNNFleet.build(points, ids=np.arange(-1, points.shape[0] - 1), n_shards=2)

    def test_failed_insert_leaves_round_robin_counter_untouched(self, points):
        fleet = KNNFleet.build(points, n_shards=2, strategy="round_robin", k=3)
        before = fleet._n_assigned
        with pytest.raises(ValueError, match="dims"):
            fleet.insert(np.zeros((4, 2)))  # wrong dimensionality
        assert fleet._n_assigned == before  # future assignment not shifted

    def test_bad_id_batch_mutates_no_shard(self, points):
        # A batch containing a negative id must be rejected before ANY
        # shard is touched, or the fleet is left permanently inconsistent
        # (one shard holding an id the fleet cannot track or delete).
        fleet = KNNFleet.build(points, n_shards=2, k=3)
        n_before = fleet.n_live
        spread = np.stack([points.min(axis=0) - 1, points.max(axis=0) + 1])
        with pytest.raises(ValueError, match="non-negative"):
            fleet.insert(spread, ids=np.array([9000, -1]))
        assert fleet.n_live == n_before
        # The whole batch can be retried cleanly after the fix-up.
        fleet.insert(spread, ids=np.array([9000, 9001]))
        assert fleet.n_live == n_before + 2
        fleet.delete([9000, 9001])

    @pytest.mark.parametrize("n_ids", [1, 3])
    def test_ids_length_mismatch_mutates_no_shard(self, points, n_ids):
        # Rejected like KNNService.insert rejects it, before any shard (or
        # the fleet's clock) moves.
        fleet = KNNFleet.build(points, n_shards=2, k=3)
        n_before = fleet.n_live
        with pytest.raises(ValueError, match="ids length must match"):
            fleet.insert(points[:2] + 0.5, ids=np.arange(9000, 9000 + n_ids), at=1.0)
        assert fleet.n_live == n_before and fleet.now == 0.0
        fleet.insert(points[:2] + 0.5, ids=np.array([9000, 9001]), at=1.0)
        assert fleet.n_live == n_before + 2


class TestRejectMode:
    def test_overflow_rejects_newest(self, points):
        fleet = slow_fleet(points, AdmissionPolicy(max_pending=5, mode="reject"))
        rids = [fleet.submit(points[i], at=float(i)) for i in range(8)]
        assert fleet.n_pending == 5
        stats = fleet.admission.stats
        assert stats.admitted == 5 and stats.rejected == 3 and stats.shed == 0
        assert stats.offered == 8
        # Rejected ids resolve loudly, admitted ones complete on flush.
        for rid in rids[5:]:
            with pytest.raises(RequestRejectedError):
                fleet.result(rid)
        fleet.flush(at=10.0)
        d, i = fleet.result(rids[0])
        assert d.shape == (3,)

    def test_admission_surfaces_in_fleet_stats(self, points):
        fleet = slow_fleet(points, AdmissionPolicy(max_pending=2, mode="reject"))
        for i in range(5):
            fleet.submit(points[i], at=float(i))
        stats = fleet.stats()
        assert stats["admission"]["rejected"] == 3.0
        assert stats["admission"]["admitted"] == 2.0
        fleet.drain(at=10.0)
        stats = fleet.stats()
        assert stats["n_requests"] == 2.0  # latency stats cover admitted only
        assert stats["qps"] > 0


class TestShedMode:
    def test_overflow_sheds_oldest(self, points):
        fleet = slow_fleet(points, AdmissionPolicy(max_pending=3, mode="shed"))
        rids = [fleet.submit(points[i], at=float(i)) for i in range(5)]
        assert fleet.n_pending == 3
        stats = fleet.admission.stats
        assert stats.shed == 2 and stats.rejected == 0
        assert stats.admitted == 5  # everything was admitted; two died queued
        # The two OLDEST requests were shed; the newest three survive.
        for rid in rids[:2]:
            with pytest.raises(RequestRejectedError):
                fleet.result(rid)
        fleet.flush(at=10.0)
        for rid in rids[2:]:
            assert fleet.result(rid)[0].shape == (3,)
