"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.cluster.machine import MachineSpec
from repro.datasets.cosmology import cosmology_particles
from repro.datasets.dayabay import dayabay_records
from repro.datasets.plasma import plasma_particles


@pytest.fixture(autouse=True)
def _no_leaked_workers():
    """Fail a test that returns with a thread or child process it started
    still alive (an unclosed pool or ops server)."""
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    leaked = [t for t in threading.enumerate() if t not in threads]
    leaked += [p for p in multiprocessing.active_children() if p not in children]
    for worker in leaked:
        worker.join(timeout=2.0)  # a closed pool's workers may still be exiting
    alive = [w.name for w in leaked if w.is_alive()]
    assert not alive, f"test leaked live workers: {alive}"


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic RNG shared across tests."""
    return np.random.default_rng(20160527)


@pytest.fixture(scope="session")
def small_points() -> np.ndarray:
    """A small anisotropic 3-D Gaussian cloud."""
    gen = np.random.default_rng(7)
    return gen.normal(size=(2_000, 3)) * np.array([3.0, 1.0, 0.5])


@pytest.fixture(scope="session")
def small_queries(small_points: np.ndarray) -> np.ndarray:
    """Queries drawn near the small point cloud."""
    gen = np.random.default_rng(11)
    idx = gen.choice(small_points.shape[0], size=200, replace=False)
    return small_points[idx] + gen.normal(scale=0.05, size=(200, 3))


@pytest.fixture(scope="session")
def cosmo_points() -> np.ndarray:
    """A reduced cosmology-like clustered point set."""
    return cosmology_particles(5_000, seed=3)


@pytest.fixture(scope="session")
def plasma_points() -> np.ndarray:
    """A reduced plasma-like point set."""
    return plasma_particles(4_000, seed=5)


@pytest.fixture(scope="session")
def dayabay_data() -> tuple[np.ndarray, np.ndarray]:
    """A reduced labelled Daya-Bay-like record set."""
    return dayabay_records(4_000, seed=9)


@pytest.fixture(scope="session")
def edison() -> MachineSpec:
    """The Edison node description."""
    return MachineSpec.edison()
