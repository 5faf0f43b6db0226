"""Pluggable rank executors: how per-rank SPMD steps actually run.

The algorithms in :mod:`repro.core` are bulk-synchronous: every phase is a
set of independent per-rank *steps* (build a local tree, answer a query
batch, histogram a coordinate column) separated by collective exchanges
through the :class:`~repro.cluster.comm.Communicator`.  Historically each
call site hard-coded ``for rank in cluster.ranks:``; this module turns the
dispatch into a pluggable policy so the same algorithm code runs

* :class:`InlineExecutor` — sequentially in the calling thread (the
  deterministic default, byte-identical to the historical loops);
* :class:`ThreadExecutor` — across a thread pool (wins when the step is a
  GIL-releasing NumPy kernel);
* :class:`ProcessExecutor` — across a persistent ``multiprocessing`` worker
  pool.  Heavy per-rank state (point arrays, local kd-trees) is *published*
  into ``multiprocessing.shared_memory`` segments — write-once: a publish
  never mutates a live segment, it allocates a fresh one and retires the
  old — and workers map them as zero-copy read-only NumPy views.  Task and
  result messages are pickled frames over multiprocessing queues.

Steps are deliberately *pure*: a step receives a read-only
:class:`RankState` plus explicit picklable arguments and returns a
picklable result.  All mutation of authoritative rank state and all metrics
accounting happen in the parent, which is what keeps results and
communicator byte counters identical across executors.

A step must be a module-level function (so the process backend can pickle
it by reference)::

    def _local_knn_step(state, queries, k):
        return batch_knn(state.tree, queries, k)

    tasks = [RankTask(r, _local_knn_step, (q[r], k), {"tree": tree_of(r)})
             for r in range(n_ranks)]
    d_i_stats = cluster.run_ranks(tasks)
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Arrays smaller than this are shipped inline inside the task frame rather
#: than through a shared-memory segment (segment setup costs more than the
#: copy for tiny payloads, and zero-size segments are not representable).
_INLINE_MAX_BYTES = 16384

#: Tree arrays published for worker-side reconstruction, in constructor order.
_TREE_ARRAYS = ("points", "ids", "split_dim", "split_val", "left", "right", "start", "count")


@dataclass
class RankTask:
    """One per-rank unit of work submitted to an executor.

    Attributes
    ----------
    rank:
        Global rank id the step belongs to (reported back on errors and used
        to key published state).
    step:
        Module-level callable ``step(state, *args)``.
    args:
        Positional arguments forwarded to the step (must be picklable for
        the process backend).
    state:
        Named heavy rank-local state the step reads through
        :class:`RankState` attributes.  Values may be NumPy arrays or
        :class:`~repro.kdtree.tree.KDTree` instances; the process backend
        publishes them to shared memory keyed by object identity, so
        resubmitting unchanged state costs nothing.  State is treated as
        immutable while published: to change it, submit a *new* object
        (replace, don't mutate) — in-place mutation of a published array is
        not propagated to workers and would silently serve stale bytes.
        Every call site in :mod:`repro.core` follows this rule
        (``Rank.set_points`` and tree builds always allocate fresh arrays).
    """

    rank: int
    step: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    state: Dict[str, Any] = field(default_factory=dict)


class RankState:
    """Read-only view of one rank's state handed to a step."""

    def __init__(self, rank: int, values: Dict[str, Any]) -> None:
        self.rank = rank
        self._values = values

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(
                f"rank state has no item {name!r}; available: {sorted(self._values)}"
            ) from None


class RankExecutor:
    """Interface every executor implements (see module docstring)."""

    #: Short identifier used in reprs, benchmarks and ``make_executor``.
    name: str = "abstract"

    def run(self, tasks: Sequence[Optional[RankTask]]) -> List[Any]:
        """Execute every non-``None`` task; returns per-task results in order.

        ``None`` entries are skipped and yield ``None`` results, so call
        sites can keep dense rank-indexed task lists.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release workers and published shared-memory segments (idempotent)."""

    def __enter__(self) -> "RankExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _WorkerPoolDied(RuntimeError):
    """Internal: the process pool lost workers mid-run (triggers respawn)."""


def _run_task(task: RankTask) -> Any:
    return task.step(RankState(task.rank, dict(task.state)), *task.args)


class InlineExecutor(RankExecutor):
    """Run rank steps sequentially in the calling thread (the default)."""

    name = "inline"

    def run(self, tasks: Sequence[Optional[RankTask]]) -> List[Any]:
        return [None if task is None else _run_task(task) for task in tasks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "InlineExecutor()"


class ThreadExecutor(RankExecutor):
    """Run rank steps across a persistent thread pool.

    Worthwhile when steps spend their time in GIL-releasing NumPy kernels
    (batched traversals, partition scans); pure-Python steps serialise on
    the GIL and see no speedup.  The lazy pool start and the closed flag
    are lock-guarded, so concurrent submitters racing a close either get
    the pool or a clean "executor is closed" error — never a pool created
    after shutdown.
    """

    name = "thread"

    GUARDED_BY = {"_pool": "_lock", "_closed": "_lock"}

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = _default_workers() if n_workers is None else n_workers
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    def _live_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def run(self, tasks: Sequence[Optional[RankTask]]) -> List[Any]:
        live = [(i, task) for i, task in enumerate(tasks) if task is not None]
        results: List[Any] = [None] * len(tasks)
        if not live:
            return results
        pool = self._live_pool()
        for (i, _), result in zip(live, pool.map(_run_task, [t for _, t in live])):
            results[i] = result
        return results

    def close(self) -> None:
        # Flip the flag under the lock, shut the pool down outside it: a
        # second closer returns immediately while the first waits for
        # workers, and no submitter can resurrect the pool in between.
        with self._lock:
            already = self._closed
            self._closed = True
            pool, self._pool = self._pool, None
        if not already and pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadExecutor(n_workers={self.n_workers})"


# ----------------------------------------------------------------------
# Process backend: shared-memory publication
# ----------------------------------------------------------------------
@dataclass
class _Publication:
    """One published object: its spec, its segments and how many
    ``(rank, name)`` bindings currently reference it."""

    obj: Any
    spec: tuple
    segments: list
    bound: int = 0


def _unlink_segments(segments: list) -> None:
    """Retire shared-memory segments the parent owns."""
    for shm in segments:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view is still live
            pass


def _publish_array(arr: np.ndarray, segments: list) -> tuple:
    """Spec for ``arr``: inline for tiny payloads, else a fresh SHM segment.

    Appends any created :class:`SharedMemory` handle to ``segments`` so the
    caller owns the lifetime (write-once publish: segments are never reused).
    """
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    if arr.nbytes < _INLINE_MAX_BYTES:
        return ("inline", arr)
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    segments.append(shm)
    return ("shm", shm.name, arr.dtype.str, arr.shape)


def _attach_array(spec: tuple, shms: list) -> np.ndarray:
    """Materialise an array spec in a worker; zero-copy for SHM specs."""
    from multiprocessing import shared_memory

    if spec[0] == "inline":
        return spec[1]
    _, name, dtype, shape = spec
    # The resource tracker is shared across the whole process family (its fd
    # is inherited/passed to children), so the attach-side registration this
    # performs is an idempotent set-add of a name the parent already tracks;
    # the parent's unlink() unregisters it exactly once.
    shm = shared_memory.SharedMemory(name=name)
    shms.append(shm)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    view.flags.writeable = False
    return view


def _publish_value(value: Any, segments: list) -> tuple:
    """Publication spec for one state value (array or kd-tree)."""
    from repro.kdtree.tree import KDTree

    if isinstance(value, np.ndarray):
        return ("array", _publish_array(value, segments))
    if isinstance(value, KDTree):
        arrays = {name: _publish_array(getattr(value, name), segments) for name in _TREE_ARRAYS}
        return ("tree", arrays, value.config)
    raise TypeError(
        f"rank state values must be numpy arrays or KDTree instances, got {type(value).__name__}"
    )


def _materialize_value(spec: tuple, shms: list) -> Any:
    """Worker-side inverse of :func:`_publish_value`."""
    if spec[0] == "array":
        return _attach_array(spec[1], shms)
    from repro.kdtree.tree import KDTree, TreeBuildStats

    _, arrays, config = spec
    attached = {name: _attach_array(arrays[name], shms) for name in _TREE_ARRAYS}
    return KDTree(config=config, stats=TreeBuildStats(), **attached)


def _worker_main(task_queue, result_queue) -> None:
    """Persistent worker loop: pickled task frames in, result frames out.

    Attached publications are cached by publication id (an object shared by
    several ranks — e.g. a replicated tree — is mapped once) and released
    when no ``(rank, name)`` binding references them any more.
    """
    bindings: Dict[Tuple[int, str], int] = {}
    pubs: Dict[int, Tuple[list, Any]] = {}
    while True:
        raw = task_queue.get()
        if raw is None:
            break
        run_id, seq, rank, step, args, state_specs, min_live_pub = pickle.loads(raw)
        try:
            # Publication ids are monotonic and the frame carries the oldest
            # *live* one, so anything older in the cache was retired by the
            # parent and its segments can be reclaimed now instead of
            # lingering until a task for the same (rank, name) arrives.
            for pub_id in [p for p in pubs if p < min_live_pub]:
                for shm in pubs.pop(pub_id)[0]:
                    shm.close()
            for key in [k for k, v in bindings.items() if v < min_live_pub]:
                del bindings[key]
            values: Dict[str, Any] = {}
            for name, (pub_id, spec) in state_specs.items():
                old = bindings.get((rank, name))
                if old != pub_id:
                    bindings[(rank, name)] = pub_id
                    if old is not None and old not in bindings.values():
                        for shm in pubs.pop(old, ([], None))[0]:
                            shm.close()
                if pub_id in pubs:
                    values[name] = pubs[pub_id][1]
                    continue
                shms: list = []
                obj = _materialize_value(spec, shms)
                pubs[pub_id] = (shms, obj)
                values[name] = obj
            result = step(RankState(rank, values), *args)
            # Serialise here, not in the queue's feeder thread: an
            # unpicklable result must become an error frame the parent sees,
            # not a silent drop that hangs the result wait.
            blob = pickle.dumps((run_id, seq, True, result), protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            blob = pickle.dumps(
                (run_id, seq, False, traceback.format_exc()),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        result_queue.put(blob)
    for shms, _ in pubs.values():
        for shm in shms:
            shm.close()


class ProcessExecutor(RankExecutor):
    """Run rank steps on a persistent pool of worker processes.

    Heavy state is published once per object into shared memory and read by
    workers as zero-copy views; tasks and results travel as pickled frames
    over multiprocessing queues.  Workers start lazily on the first
    :meth:`run` and live until :meth:`close`.

    Parameters
    ----------
    n_workers:
        Worker processes (defaults to the CPU count).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap startup, inherits imported modules) and ``"spawn"``
        elsewhere.
    result_timeout_s:
        How long :meth:`run` waits between result frames before checking
        worker liveness; a dead worker turns the wait into a hard error
        instead of a deadlock.
    """

    name = "process"

    GUARDED_BY = {"_closed": "_lock"}

    def __init__(
        self,
        n_workers: int | None = None,
        start_method: str | None = None,
        result_timeout_s: float = 1.0,
    ) -> None:
        import multiprocessing as mp

        self.n_workers = _default_workers() if n_workers is None else n_workers
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self._workers: list = []
        self._task_queue = None
        self._result_queue = None
        # Publications are keyed by object identity and reference-counted by
        # their (rank, name) bindings: an object submitted for several ranks
        # (a replicated tree) is published once, and a publication is
        # unlinked when its last binding moves to a newer object.  The
        # strong object reference pins the published bytes and makes the
        # identity check safe against id() reuse.
        self._pubs: Dict[int, _Publication] = {}
        self._by_obj: Dict[int, int] = {}
        self._bindings: Dict[Tuple[int, str], int] = {}
        self._next_pub_id = 0
        self._run_counter = 0
        self._result_timeout_s = result_timeout_s
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._workers:
            return
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
        try:
            # Start the shared-memory resource tracker *before* the workers
            # exist, so the whole process family shares one tracker: worker
            # attaches then register names the parent already tracks
            # (idempotent), and the parent's unlink retires each name
            # exactly once.  Workers forked first would lazily spawn their
            # own trackers, which would mis-report the parent's segments as
            # leaked at shutdown.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        for _ in range(self.n_workers):
            proc = self._ctx.Process(
                target=_worker_main, args=(self._task_queue, self._result_queue), daemon=True
            )
            proc.start()
            self._workers.append(proc)

    def close(self) -> None:
        # Atomic check-and-set: exactly one closer runs the teardown, any
        # concurrent or repeated close returns immediately.
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._workers:
            for _ in self._workers:
                self._task_queue.put(None)
            for proc in self._workers:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._task_queue.close()
            self._result_queue.close()
            self._workers = []
        for pub in self._pubs.values():
            _unlink_segments(pub.segments)
        self._pubs.clear()
        self._by_obj.clear()
        self._bindings.clear()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _publish(self, rank: int, name: str, value: Any) -> Tuple[int, tuple]:
        """(pub_id, spec) for ``value``, publishing each object at most once.

        The same object submitted under several ``(rank, name)`` bindings
        (e.g. a tree replicated on every rank) shares one publication; a
        publication is unlinked once its last binding rebinds to a newer
        object (write-once publish, reference-counted retirement).
        """
        pub_id = self._by_obj.get(id(value))
        pub = self._pubs.get(pub_id) if pub_id is not None else None
        if pub is None or pub.obj is not value:
            segments: list = []
            spec = _publish_value(value, segments)
            pub_id = self._next_pub_id
            self._next_pub_id += 1
            pub = _Publication(obj=value, spec=spec, segments=segments)
            self._pubs[pub_id] = pub
            self._by_obj[id(value)] = pub_id
        key = (rank, name)
        old = self._bindings.get(key)
        if old != pub_id:
            self._bindings[key] = pub_id
            pub.bound += 1
            if old is not None:
                self._release_binding(old)
        return pub_id, pub.spec

    def _release_binding(self, pub_id: int) -> None:
        pub = self._pubs[pub_id]
        pub.bound -= 1
        if pub.bound > 0:
            return
        _unlink_segments(pub.segments)
        del self._pubs[pub_id]
        if self._by_obj.get(id(pub.obj)) == pub_id:
            del self._by_obj[id(pub.obj)]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Optional[RankTask]]) -> List[Any]:
        live = [(i, task) for i, task in enumerate(tasks) if task is not None]
        results: List[Any] = [None] * len(tasks)
        if not live:
            return results
        self._ensure_started()
        retried = False
        while True:
            try:
                self._run_once(live, results)
                return results
            except _WorkerPoolDied as death:
                # Rank steps are pure functions of published state, so after
                # respawning the pool the whole run can safely re-execute.
                # One retry only: a deterministic crash (e.g. OOM on a task)
                # must surface instead of looping.
                self._respawn()
                if retried:
                    raise RuntimeError(str(death))
                retried = True

    def _run_once(self, live, results) -> None:
        self._run_counter += 1
        run_id = self._run_counter
        min_live_pub = min(self._pubs, default=self._next_pub_id)
        for seq, task in live:
            state_specs = {
                name: self._publish(task.rank, name, value) for name, value in task.state.items()
            }
            # Pickle eagerly so an unpicklable step/argument raises here, in
            # the caller, instead of silently failing in the queue's feeder
            # thread and hanging the result wait.
            self._task_queue.put(
                pickle.dumps(
                    (run_id, seq, task.rank, task.step, task.args, state_specs, min_live_pub),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
        outstanding = len(live)
        while outstanding:
            try:
                blob = self._result_queue.get(timeout=self._result_timeout_s)
            except queue_mod.Empty:
                dead = [p for p in self._workers if not p.is_alive()]
                if dead:
                    raise _WorkerPoolDied(
                        f"{len(dead)} executor worker(s) died with exit codes "
                        f"{[p.exitcode for p in dead]}"
                    )
                continue
            rid, seq, ok, payload = pickle.loads(blob)
            if rid != run_id:
                # Straggler frame from an earlier run that aborted on a step
                # failure; its run already raised, so the frame is dropped
                # rather than misattributed to this run's seq indexes.
                continue
            if not ok:
                raise RuntimeError(f"rank step failed in worker:\n{payload}")
            results[seq] = payload
            outstanding -= 1

    def _respawn(self) -> None:
        """Tear down a (partially) dead pool and start a fresh one.

        Publications survive — the parent owns the segments — so new workers
        simply re-attach on their first task.  Fresh queues drop any frames
        the dead pool left behind.
        """
        for proc in self._workers:
            proc.terminate()
            proc.join(timeout=5.0)
        self._workers = []
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_queue = None
        self._result_queue = None
        self._ensure_started()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutor(n_workers={self.n_workers})"


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def make_executor(spec: "str | RankExecutor | None", n_workers: int | None = None) -> RankExecutor:
    """Build an executor from a spec.

    ``None`` / ``"inline"`` give the sequential default; ``"thread"`` and
    ``"process"`` build pools (worker count from ``n_workers`` or
    ``"thread:4"``-style suffixes); an existing executor passes through.
    """
    if spec is None:
        return InlineExecutor()
    if isinstance(spec, RankExecutor):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"executor spec must be a string or RankExecutor, got {type(spec).__name__}")
    kind, _, count = spec.partition(":")
    if count:
        n_workers = int(count)
    kind = kind.strip().lower()
    if kind == "inline":
        return InlineExecutor()
    if kind in ("thread", "threads"):
        return ThreadExecutor(n_workers)
    if kind in ("process", "processes"):
        return ProcessExecutor(n_workers)
    raise ValueError(f"unknown executor spec {spec!r}; expected inline, thread or process")
