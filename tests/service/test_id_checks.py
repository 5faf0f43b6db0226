"""Ids are checked the same way at both front doors.

``KNNService`` and ``KNNFleet`` reject ids that are not 1-D, not integral
or repeated within one call with a ``ValueError``, before the clock or any
state moves: a float id is never truncated into another point's id.

The construction doors (``PandaKNN.fit``, ``KNNService`` over a built
backend, ``KNNFleet.build``) also reject negative ids: every merge treats
an id below 0 as padding, so such a point would drop out of answers.
"""

import numpy as np
import pytest

from repro.core.panda import PandaKNN
from repro.fleet import KNNFleet
from repro.obs import ManualClock
from repro.service import KNNService, LocalTreeBackend

POINTS = np.random.default_rng(8).normal(size=(60, 3))


@pytest.fixture(params=["service", "fleet"])
def door(request):
    if request.param == "service":
        door = KNNService(LocalTreeBackend.fit(POINTS), k=3, clock=ManualClock())
    else:
        door = KNNFleet.build(POINTS, n_shards=2, n_replicas=2, k=3, clock=ManualClock())
    door.query(POINTS[0], at=1.0)
    yield door
    door.close()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda door: door.delete([1.9], at=5.0), "integers"),
        (lambda door: door.delete([5, 5], at=5.0), "duplicate"),
        (lambda door: door.delete(np.array([[1], [2]]), at=5.0), "1-D"),
        (lambda door: door.delete(3, at=5.0), "1-D"),
        (lambda door: door.insert(np.zeros((1, 3)), ids=[1000.7], at=5.0), "integers"),
        (lambda door: door.insert(np.zeros((1, 3)), ids=[np.nan], at=5.0), "integers"),
        (lambda door: door.insert(np.zeros((2, 3)), ids=[1000, 1000], at=5.0), "duplicate"),
        (lambda door: door.insert(np.zeros((2, 3)), ids=[[1000], [1001]], at=5.0), "1-D"),
        (lambda door: door.insert(np.zeros((1, 3)), ids=["7"], at=5.0), "integers"),
    ],
)
def test_malformed_ids_raise_before_anything_moves(door, call, match):
    with pytest.raises(ValueError, match=match):
        call(door)
    assert door.now == 1.0 and door.n_live == POINTS.shape[0]
    # Ids 1 and 5 are still live, and id 1000 was never stored.
    door.delete([1, 5], at=2.0)
    assert door.n_live == POINTS.shape[0] - 2
    with pytest.raises(KeyError, match="1000"):
        door.delete([1000], at=3.0)


def test_integral_float_ids_are_taken_as_integers(door):
    assert door.insert(np.full((2, 3), 9.0), ids=np.array([1000.0, 1001.0]), at=2.0).tolist() == [
        1000,
        1001,
    ]
    d, i = door.query(np.full(3, 9.0), k=2, at=3.0)
    assert sorted(i.tolist()) == [1000, 1001] and d.tolist() == [0.0, 0.0]


class TestConstructionDoors:
    def test_fit_rejects_negative_ids(self):
        index = PandaKNN(n_ranks=2)
        with pytest.raises(ValueError, match="non-negative"):
            index.fit(POINTS, ids=-np.arange(1, POINTS.shape[0] + 1))
        assert not index.is_fitted and index.cluster.total_points() == 0

    def test_fit_rejects_non_integral_ids(self):
        ids = np.arange(POINTS.shape[0], dtype=np.float64)
        ids[5] = 0.7
        index = PandaKNN(n_ranks=2)
        with pytest.raises(ValueError, match="integers"):
            index.fit(POINTS, ids=ids)
        assert index.cluster.total_points() == 0
        # Integral floats are taken as the integers they are.
        index.fit(POINTS, ids=np.arange(POINTS.shape[0], dtype=np.float64) + 10)
        assert index.kneighbors(POINTS[3], k=1)[1].tolist() == [[13]]

    def test_service_rejects_a_backend_holding_a_negative_id(self):
        ids = np.arange(POINTS.shape[0])
        ids[0] = -5
        with pytest.raises(ValueError, match="non-negative"):
            KNNService(LocalTreeBackend.fit(POINTS, ids=ids), k=3)

    def test_fleet_build_rejects_non_integral_ids(self):
        with pytest.raises(ValueError, match="integers"):
            KNNFleet.build(POINTS, ids=np.arange(POINTS.shape[0]) + 0.5, n_shards=2)

    @pytest.mark.parametrize(
        "ids, match",
        [
            (np.r_[np.arange(59.0), np.nan], "integers"),
            (np.r_[np.arange(59.0), np.inf], "integers"),
            (np.r_[np.arange(59), -1], "non-negative"),
            (np.arange(59), "length"),
        ],
        ids=["nan", "inf", "one_negative", "short"],
    )
    def test_fit_rejects_malformed_ids(self, ids, match):
        index = PandaKNN(n_ranks=3)
        with pytest.raises(ValueError, match=match):
            index.fit(POINTS, ids=ids)
        assert not index.is_fitted and index.cluster.total_points() == 0

    @pytest.mark.parametrize(
        "ids, match",
        [
            (np.r_[np.arange(59.0), np.nan], "integers"),
            (np.r_[np.arange(59), -(2**40)], "non-negative"),
            (np.arange(60).reshape(30, 2), "1-D"),
        ],
        ids=["nan", "large_negative", "2d"],
    )
    def test_fleet_build_rejects_malformed_ids(self, ids, match):
        with pytest.raises(ValueError, match=match):
            KNNFleet.build(POINTS, ids=ids, n_shards=2)
