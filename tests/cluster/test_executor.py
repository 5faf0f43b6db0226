"""Tests for the pluggable rank executors (inline / thread / process).

The load-bearing property is A/B identity: every executor must produce
byte-identical trees, query results and statistics, and an unchanged
per-rank, per-phase communicator byte accounting — the executor decides
*where* a rank step runs, never what it computes.
"""

import multiprocessing

import numpy as np
import pytest

from repro.cluster.comm import Communicator, PickleTransport
from repro.cluster.executor import (
    InlineExecutor,
    ProcessExecutor,
    RankTask,
    ThreadExecutor,
    make_executor,
)
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.simulator import Cluster
from repro.core.panda import PandaKNN, ReplicatedKNN
from repro.kdtree.validate import check_snapshot_roundtrip

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process executor tests pickle test-module steps by reference"
)


def _executor_params():
    return [
        pytest.param("inline", id="inline"),
        pytest.param("thread:2", id="thread"),
        pytest.param("process:2", id="process", marks=[] if HAS_FORK else [needs_fork]),
    ]


# ----------------------------------------------------------------------
# Steps used by the unit tests (module level so they pickle by reference).
# ----------------------------------------------------------------------
def _double_step(state, offset):
    return state.values * 2 + offset


def _sum_tree_ids_step(state):
    return int(state.tree.ids.sum())


def _boom_step(state):
    raise ValueError("intentional step failure")


def _slow_echo_step(state, tag, delay_s):
    import time

    time.sleep(delay_s)
    return tag


def _unpicklable_result_step(state):
    return lambda: 1


def _identity_points_step(state):
    return state.points.copy()


@pytest.fixture
def dataset():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(1200, 3))
    queries = points[rng.choice(points.shape[0], 150, replace=False)] + 0.01
    return points, queries


def _counters(cluster: Cluster) -> dict:
    return cluster.metrics.snapshot()


class TestExecutorBasics:
    @pytest.mark.parametrize("spec", _executor_params())
    def test_run_preserves_order_and_skips_none(self, spec):
        with make_executor(spec) as executor:
            values = [np.arange(3) + r for r in range(5)]
            tasks = [
                None
                if r == 2
                else RankTask(r, _double_step, (r,), {"values": values[r]})
                for r in range(5)
            ]
            results = executor.run(tasks)
            assert results[2] is None
            for r in (0, 1, 3, 4):
                assert np.array_equal(results[r], values[r] * 2 + r)

    @pytest.mark.parametrize("spec", _executor_params())
    def test_empty_and_all_none_runs(self, spec):
        with make_executor(spec) as executor:
            assert executor.run([]) == []
            assert executor.run([None, None]) == [None, None]

    @needs_fork
    def test_process_step_error_propagates(self):
        with ProcessExecutor(n_workers=1) as executor:
            with pytest.raises(RuntimeError, match="intentional step failure"):
                executor.run([RankTask(0, _boom_step)])

    @needs_fork
    def test_process_republishes_mutated_state(self):
        with ProcessExecutor(n_workers=1) as executor:
            # Large enough to cross the shared-memory threshold.
            first = np.ones((4096, 3))
            out = executor.run([RankTask(0, _identity_points_step, (), {"points": first})])[0]
            assert np.array_equal(out, first)
            second = np.full((4096, 3), 7.0)
            out = executor.run([RankTask(0, _identity_points_step, (), {"points": second})])[0]
            assert np.array_equal(out, second)

    @needs_fork
    def test_process_publishes_trees(self, dataset):
        from repro.kdtree.build import build_kdtree

        points, _ = dataset
        tree = build_kdtree(points)
        with ProcessExecutor(n_workers=2) as executor:
            tasks = [RankTask(r, _sum_tree_ids_step, (), {"tree": tree}) for r in range(3)]
            assert executor.run(tasks) == [int(tree.ids.sum())] * 3

    @needs_fork
    def test_failed_run_does_not_poison_next_run(self):
        # A step failure aborts the run while a slower task is still in
        # flight; its straggler frame must not be misattributed to the next
        # run's seq indexes.
        with ProcessExecutor(n_workers=2) as executor:
            with pytest.raises(RuntimeError, match="intentional step failure"):
                executor.run(
                    [
                        RankTask(0, _boom_step),
                        RankTask(1, _slow_echo_step, ("stale", 0.3)),
                    ]
                )
            results = executor.run(
                [
                    RankTask(0, _slow_echo_step, ("fresh0", 0.0)),
                    RankTask(1, _slow_echo_step, ("fresh1", 0.0)),
                ]
            )
            assert results == ["fresh0", "fresh1"]

    @needs_fork
    def test_shared_object_published_once(self):
        # The same object bound for several ranks (replicated tree) must
        # share one publication, retired only when its last binding moves.
        with ProcessExecutor(n_workers=1) as executor:
            shared = np.ones((4096, 3))
            executor.run(
                [RankTask(r, _identity_points_step, (), {"points": shared}) for r in range(3)]
            )
            assert len(executor._pubs) == 1
            assert sum(len(p.segments) for p in executor._pubs.values()) == 1
            fresh = np.full((4096, 3), 2.0)
            executor.run([RankTask(0, _identity_points_step, (), {"points": fresh})])
            # Old publication survives (ranks 1 and 2 still bind it).
            assert len(executor._pubs) == 2

    @needs_fork
    def test_pool_respawns_after_worker_death(self):
        with ProcessExecutor(n_workers=1, result_timeout_s=0.1) as executor:
            task = RankTask(0, _slow_echo_step, ("alive", 0.0))
            assert executor.run([task]) == ["alive"]
            executor._workers[0].terminate()
            executor._workers[0].join(timeout=5.0)
            # The dead pool is detected, respawned, and the run re-executed.
            assert executor.run([task]) == ["alive"]
            assert all(p.is_alive() for p in executor._workers)

    @needs_fork
    def test_unpicklable_step_raises_instead_of_hanging(self):
        import pickle

        with ProcessExecutor(n_workers=1, result_timeout_s=0.1) as executor:
            with pytest.raises((pickle.PicklingError, AttributeError)):
                executor.run([RankTask(0, lambda state: 1)])
            # The pool is still usable afterwards.
            assert executor.run([RankTask(0, _slow_echo_step, ("ok", 0.0))]) == ["ok"]

    @needs_fork
    def test_unpicklable_result_becomes_error(self):
        with ProcessExecutor(n_workers=1, result_timeout_s=0.1) as executor:
            with pytest.raises(RuntimeError, match="rank step failed"):
                executor.run([RankTask(0, _unpicklable_result_step)])

    def test_cluster_closes_only_owned_executors(self):
        shared = ThreadExecutor(1)
        borrowed = Cluster(2, executor=shared)
        borrowed.close()
        # Caller-supplied instance survives the cluster's close.
        assert shared.run([RankTask(0, _double_step, (1,), {"values": np.arange(2)})])
        shared.close()
        owned = Cluster(2, executor="thread:1")
        pool = owned.executor
        owned.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([RankTask(0, _double_step, (1,), {"values": np.arange(2)})])

    def test_thread_run_after_close_raises(self):
        executor = ThreadExecutor(1)
        executor.run([RankTask(0, _double_step, (0,), {"values": np.arange(2)})])
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run([RankTask(0, _double_step, (0,), {"values": np.arange(2)})])

    def test_close_is_idempotent(self):
        for executor in (InlineExecutor(), ThreadExecutor(1), ProcessExecutor(1)):
            executor.close()
            executor.close()

    def test_make_executor_specs(self):
        assert isinstance(make_executor(None), InlineExecutor)
        assert isinstance(make_executor("inline"), InlineExecutor)
        assert make_executor("thread:3").n_workers == 3
        assert make_executor("process", n_workers=2).n_workers == 2
        existing = InlineExecutor()
        assert make_executor(existing) is existing
        with pytest.raises(ValueError):
            make_executor("gpu")
        with pytest.raises(TypeError):
            make_executor(3.5)

    def test_worker_counts_validated(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(-1)


class TestExecutorIdentity:
    """Inline / thread / process must be indistinguishable in results."""

    @pytest.fixture
    def baseline(self, dataset):
        points, queries = dataset
        index = PandaKNN(n_ranks=4).fit(points)
        report = index.query(queries, k=5)
        return index, report

    @pytest.mark.parametrize("spec", _executor_params())
    def test_build_query_stats_and_bytes_identical(self, spec, dataset, baseline):
        points, queries = dataset
        base_index, base_report = baseline
        with PandaKNN(n_ranks=4, executor=spec) as index:
            index.fit(points)
            report = index.query(queries, k=5)
            assert report.distances.tobytes() == base_report.distances.tobytes()
            assert report.ids.tobytes() == base_report.ids.tobytes()
            assert np.array_equal(report.owners, base_report.owners)
            assert np.array_equal(report.remote_fanout, base_report.remote_fanout)
            assert report.local_stats == base_report.local_stats
            assert report.remote_stats == base_report.remote_stats
            # Local trees byte-identical (config, arrays and build stats).
            for mine, theirs in zip(index.local_trees(), base_index.local_trees()):
                check_snapshot_roundtrip(theirs, mine)
            # Global tree identical (bytes: leaf entries are NaN).
            for name in ("split_dim", "split_val", "left", "right", "rank", "box_lo", "box_hi"):
                assert (
                    getattr(index.global_tree, name).tobytes()
                    == getattr(base_index.global_tree, name).tobytes()
                ), name
            # Full per-rank, per-phase accounting (bytes, messages, compute).
            assert _counters(index.cluster) == _counters(base_index.cluster)

    @pytest.mark.parametrize("spec", _executor_params())
    def test_replicated_identity(self, spec, dataset):
        points, queries = dataset
        base = ReplicatedKNN(n_ranks=3).fit(points)
        d0, i0, s0 = base.query(queries, k=4)
        with make_executor(spec) as executor:
            repl = ReplicatedKNN(n_ranks=3, executor=executor)
            repl.fit(points)
            d, i, s = repl.query(queries, k=4)
            assert d.tobytes() == d0.tobytes()
            assert i.tobytes() == i0.tobytes()
            assert s == s0
            assert _counters(repl.cluster) == _counters(base.cluster)


class TestPickleTransport:
    """Process-boundary message frames must not change results or bytes."""

    def test_collectives_roundtrip_and_copy(self):
        metrics = MetricsRegistry(3)
        comm = Communicator(metrics, transport=PickleTransport())
        payload = np.arange(6).reshape(2, 3)
        received = comm.bcast(payload, root=0)
        assert received[0] is payload  # root keeps its own object
        assert received[1] is not payload  # others got independent frames
        assert np.array_equal(received[1], payload)
        # alltoall: off-diagonal entries are deserialised copies.
        send = [[np.full(4, src * 10 + dst) for dst in range(3)] for src in range(3)]
        recv = comm.alltoall(send)
        assert recv[1][0] is not send[0][1]
        assert np.array_equal(recv[1][0], send[0][1])
        assert recv[1][1] is send[1][1]

    def test_distributed_results_and_bytes_identical(self, dataset):
        points, queries = dataset
        base = PandaKNN(n_ranks=4).fit(points)
        base_report = base.query(queries, k=5)

        index = PandaKNN(n_ranks=4)
        index.cluster = Cluster(n_ranks=4, transport=PickleTransport())
        index.fit(points)
        report = index.query(queries, k=5)
        assert report.distances.tobytes() == base_report.distances.tobytes()
        assert report.ids.tobytes() == base_report.ids.tobytes()
        assert _counters(index.cluster) == _counters(base.cluster)
