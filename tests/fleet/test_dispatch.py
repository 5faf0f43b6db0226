"""Dispatch plane: the synchronous dispatcher and its stats surface."""

import pytest

from repro.fleet import KNNFleet, SerialDispatcher, ShardCall


class TestSerialDispatcher:
    def test_executes_at_submit_in_submission_order(self):
        ran = []

        def run(shard):
            ran.append(shard)
            return shard

        disp = SerialDispatcher()
        results = [disp.submit(ShardCall(s, run, (s,))) for s in (3, 0, 2, 1)]
        assert ran == results == [3, 0, 2, 1]

    def test_exception_raises_at_submit_site(self):
        disp = SerialDispatcher()

        def boom():
            raise RuntimeError("shard-lane failure")

        with pytest.raises(RuntimeError, match="shard-lane failure"):
            disp.submit(ShardCall(0, boom))
        assert disp.stats.failed == 1

    def test_stats_counters(self):
        disp = SerialDispatcher()
        for _ in range(3):
            disp.submit(ShardCall(0, lambda: 1))
        assert disp.stats.as_dict() == {"submitted": 3.0, "completed": 3.0, "failed": 0.0}


def test_fleet_stats_surface_dispatch_counters(small_points):
    points = small_points[:400]
    with KNNFleet.build(points, n_shards=2, k=3) as fleet:
        fleet.query(points[0], at=1.0)
        stats = fleet.stats()
        dispatch = stats["dispatch"]
        assert set(dispatch) == {"submitted", "completed", "failed"}
        assert dispatch["submitted"] >= 1
        assert dispatch["completed"] == dispatch["submitted"]
