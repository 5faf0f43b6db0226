"""The one micro-batch queue model behind both front doors.

``KNNService`` and ``KNNFleet`` batch single queries through the same
:class:`~repro.service.queue.MicroBatchQueue`, so on any arrival trace a
service with its cache off and a one-shard, one-replica fleet must batch,
time and answer every request identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import KNNFleet
from repro.obs.clock import ManualClock
from repro.service import KNNService, LocalTreeBackend, MicroBatchPolicy

POINTS = np.random.default_rng(3).normal(size=(300, 3))


@st.composite
def policies(draw):
    max_batch = draw(st.integers(1, 12))
    return MicroBatchPolicy(
        max_batch=max_batch,
        min_batch=draw(st.integers(1, max_batch)),
        max_delay_s=draw(st.sampled_from([0.0, 1e-4, 1e-3, 5e-3])),
    )


# (gap to the previous event, query row, k, operation); gaps are drawn from
# a few values so arrivals coincide, fall inside and outside deadlines.
TRACE = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 5e-5, 2e-4, 1e-3, 4e-3]),
        st.integers(0, POINTS.shape[0] - 1),
        st.sampled_from([3, 5]),
        st.sampled_from(["submit", "submit", "submit", "query", "flush"]),
    ),
    min_size=1,
    max_size=60,
)


def _records(door):
    return [
        (r.request_id, r.arrival, r.dispatch, r.completion, r.batch_size) for r in door.records
    ]


def _same_bytes(a, b):
    (da, ia), (db, ib) = a, b
    assert da.dtype == db.dtype and ia.dtype == ib.dtype
    assert da.tobytes() == db.tobytes() and ia.tobytes() == ib.tobytes()


@settings(max_examples=60, deadline=None)
@given(policy=policies(), trace=TRACE, cost=st.sampled_from([1e-5, 3e-4, 2e-3]))
def test_service_and_fleet_run_one_queue_model(policy, trace, cost):
    def service_time(n):
        return cost * (1 + n)

    service = KNNService(
        LocalTreeBackend.fit(POINTS), k=5, batch_policy=policy, cache_capacity=0,
        service_time=service_time, clock=ManualClock(),
    )
    fleet = KNNFleet.build(
        POINTS, n_shards=1, n_replicas=1, k=5, batch_policy=policy,
        service_time=service_time, clock=ManualClock(),
    )
    with service, fleet:
        request_ids = []
        at = 0.0
        for gap, row, k, op in trace:
            at += gap
            if op == "submit":
                rid = service.submit(POINTS[row], k=k, at=at)
                assert fleet.submit(POINTS[row], k=k, at=at) == rid
                request_ids.append(rid)
            elif op == "query":
                _same_bytes(
                    service.query(POINTS[row], k=k, at=at), fleet.query(POINTS[row], k=k, at=at)
                )
            else:
                assert service.flush(at=at) == fleet.flush(at=at)
            assert service.n_pending == fleet.n_pending
        assert service.drain() == fleet.drain()
        assert service.now == fleet.now
        assert _records(service) == _records(fleet)
        for rid in request_ids:
            _same_bytes(service.result(rid), fleet.result(rid))


def test_fleet_adaptive_target_tracks_arrival_rate():
    policy = MicroBatchPolicy(max_batch=64, min_batch=2, max_delay_s=0.01)
    with KNNFleet.build(
        POINTS, n_shards=2, k=5, batch_policy=policy,
        service_time=lambda n: 0.001, clock=ManualClock(),
    ) as fleet:
        assert fleet.target_batch_size() == 64  # no inter-arrival gap seen yet
        # 1 kHz arrivals -> ~10 per 10 ms window.
        for j in range(30):
            fleet.submit(POINTS[j], at=j * 1e-3)
        assert fleet.target_batch_size() == pytest.approx(10, abs=3)
