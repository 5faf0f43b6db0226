"""close() is idempotent and safe under concurrent callers, at every layer."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster.executor import ProcessExecutor, ThreadExecutor
from repro.fleet.fleet import KNNFleet
from repro.service.backends import LocalTreeBackend
from repro.service.service import KNNService


@pytest.fixture
def points():
    return np.random.default_rng(41).normal(size=(300, 3))


def close_concurrently(obj, n_threads=8):
    barrier = threading.Barrier(n_threads)
    errors = []

    def run():
        barrier.wait()
        try:
            obj.close()
        except BaseException as exc:  # noqa: BLE001 - surfaced via the list
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_service_double_close(points):
    service = KNNService(LocalTreeBackend.fit(points))
    service.query(points[0])
    service.close()
    service.close()  # second close is a no-op, not an error


def test_service_concurrent_close(points):
    service = KNNService(LocalTreeBackend.fit(points))
    service.query(points[0])
    close_concurrently(service)


def test_fleet_double_close(points):
    fleet = KNNFleet.build(points, n_shards=2, n_replicas=2)
    fleet.query(points[1])
    fleet.close()
    fleet.close()


def test_fleet_concurrent_close(points):
    fleet = KNNFleet.build(points, n_shards=2, n_replicas=2)
    fleet.query(points[1])
    close_concurrently(fleet)


def test_thread_executor_double_and_concurrent_close():
    executor = ThreadExecutor(2)
    executor.close()
    executor.close()
    executor = ThreadExecutor(2)
    close_concurrently(executor)


def test_process_executor_double_close():
    executor = ProcessExecutor(2)
    executor.close()
    executor.close()
