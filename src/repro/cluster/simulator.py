"""Cluster and rank state for the simulated distributed machine.

A :class:`Cluster` owns ``P`` :class:`Rank` objects, a shared
:class:`~repro.cluster.metrics.MetricsRegistry` and a
:class:`~repro.cluster.comm.Communicator`.  Algorithms in :mod:`repro.core`
are written in a bulk-synchronous SPMD style: each step loops over ranks,
reads/writes only rank-local state, and exchanges data exclusively through
the communicator so that every byte is accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.cluster.comm import Communicator, MessageTransport
from repro.cluster.executor import RankExecutor, RankTask, make_executor
from repro.cluster.machine import MachineSpec
from repro.cluster.metrics import MetricsRegistry, PhaseCounters


@dataclass
class Rank:
    """State owned by a single simulated node.

    Attributes
    ----------
    rank:
        Global rank id.
    points:
        ``(n_local, dims)`` float64 array of points currently owned.
    ids:
        ``(n_local,)`` int64 array of global point identifiers.
    store:
        Free-form per-rank storage (local kd-tree, domain box, query queues,
        ...).  Algorithms use this instead of module-level state so multiple
        clusters can coexist in one process.
    """

    rank: int
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.float64))
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    store: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        """Number of points currently owned by this rank."""
        return int(self.points.shape[0])

    def set_points(self, points: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Replace the rank-local point set (and optionally its global ids)."""
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if ids is None:
            ids = np.arange(points.shape[0], dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != points.shape[0]:
            raise ValueError(
                f"ids length {ids.shape[0]} does not match number of points {points.shape[0]}"
            )
        self.points = points
        self.ids = ids


def integral_ids(ids) -> np.ndarray:
    """``ids`` as int64, or ``ValueError`` when one is not an integer, so
    ``1.9`` is never truncated into id 1."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        bad = ids[~(np.isfinite(ids) & (ids == np.round(ids)))] if ids.dtype.kind == "f" else ids
        if bad.size:
            raise ValueError(f"ids must be integers, got {bad[:5].tolist()}")
    return ids.astype(np.int64)


def reject_negative_ids(ids: np.ndarray) -> None:
    """``ValueError`` when an id is negative: every merge treats an id
    below 0 as padding (``-1``), so such a point would drop out of answers."""
    if ids.size and int(ids.min()) < 0:
        raise ValueError("ids must be non-negative (-1 is the padding sentinel)")


def _global_ids(n_points: int, ids: np.ndarray | None) -> np.ndarray:
    """``ids`` checked against the whole point set (default: ``0..n-1``)."""
    if ids is None:
        return np.arange(n_points, dtype=np.int64)
    ids = integral_ids(ids)
    if ids.shape[0] != n_points:
        raise ValueError(f"ids length {ids.shape[0]} does not match number of points {n_points}")
    reject_negative_ids(ids)
    return ids


class Cluster:
    """A simulated distributed-memory cluster of ``n_ranks`` nodes.

    Parameters
    ----------
    n_ranks:
        Number of nodes.  PANDA's global kd-tree requires a power of two for
        its recursive halving; non-powers of two are accepted but the global
        tree construction will pad groups (see :mod:`repro.core.global_tree`).
    machine:
        Per-node hardware description used by the cost model.
    threads_per_rank:
        Worker threads modeled inside each node (defaults to the physical
        core count of ``machine``).
    executor:
        How per-rank SPMD steps are dispatched: ``None``/``"inline"`` for
        the deterministic sequential loop, ``"thread"``/``"process"`` (or a
        :class:`~repro.cluster.executor.RankExecutor` instance) for real
        parallel execution.  Results and metrics are identical across
        executors; only wall-clock changes.  A spec string makes the
        cluster own the executor (``close()`` shuts it down); an instance
        stays owned by the caller, so one pool can be shared across
        clusters (e.g. service rebuilds) and survives any one of them
        closing.
    transport:
        Message transport of the communicator (default: by-reference).
    """

    def __init__(
        self,
        n_ranks: int,
        machine: MachineSpec | None = None,
        threads_per_rank: int | None = None,
        executor: "RankExecutor | str | None" = None,
        transport: MessageTransport | None = None,
    ) -> None:
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.machine = machine or MachineSpec.edison()
        if threads_per_rank is None:
            threads_per_rank = self.machine.cores_per_node
        if threads_per_rank <= 0:
            raise ValueError(f"threads_per_rank must be positive, got {threads_per_rank}")
        self.threads_per_rank = min(threads_per_rank, self.machine.total_threads())
        self.metrics = MetricsRegistry(n_ranks)
        self.comm = Communicator(self.metrics, transport=transport)
        self.executor = make_executor(executor)
        self._owns_executor = not isinstance(executor, RankExecutor)
        self.ranks: List[Rank] = [Rank(rank=r) for r in range(n_ranks)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of simulated nodes."""
        return len(self.ranks)

    @property
    def total_cores(self) -> int:
        """Total modeled cores across the cluster."""
        return self.n_ranks * self.threads_per_rank

    def total_points(self) -> int:
        """Total number of points currently stored across all ranks."""
        return sum(rank.n_points for rank in self.ranks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n_ranks={self.n_ranks}, machine={self.machine.name!r}, "
            f"threads_per_rank={self.threads_per_rank}, points={self.total_points()})"
        )

    # ------------------------------------------------------------------
    # Data distribution helpers
    # ------------------------------------------------------------------
    def distribute_block(self, points: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Assign contiguous blocks of ``points`` to ranks (file-order split).

        Mirrors the paper's assumption that "each node reads in an
        approximately equal number of points (in no particular order)".
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        n = points.shape[0]
        ids = _global_ids(n, ids)
        boundaries = np.linspace(0, n, self.n_ranks + 1).astype(np.int64)
        for rank in self.ranks:
            lo, hi = boundaries[rank.rank], boundaries[rank.rank + 1]
            rank.set_points(points[lo:hi], ids[lo:hi])

    def distribute_round_robin(self, points: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Deal points to ranks round-robin (maximally shuffled placement)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        n = points.shape[0]
        ids = _global_ids(n, ids)
        for rank in self.ranks:
            sel = np.arange(rank.rank, n, self.n_ranks)
            rank.set_points(points[sel], ids[sel])

    def gather_points(self) -> np.ndarray:
        """Concatenate all rank-local points (diagnostics / verification)."""
        if self.n_ranks == 0:
            return np.empty((0, 0))
        non_empty = [rank.points for rank in self.ranks if rank.n_points > 0]
        if not non_empty:
            return np.empty((0, 0))
        return np.concatenate(non_empty, axis=0)

    def gather_ids(self) -> np.ndarray:
        """Concatenate all rank-local global ids."""
        parts = [rank.ids for rank in self.ranks if rank.n_points > 0]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def points_per_rank(self) -> List[int]:
        """Current per-rank point counts (load-balance diagnostics)."""
        return [rank.n_points for rank in self.ranks]

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-rank point counts (1.0 = perfectly balanced)."""
        counts = self.points_per_rank()
        mean = float(np.mean(counts)) if counts else 0.0
        if mean == 0.0:
            return 1.0
        return float(np.max(counts)) / mean

    # ------------------------------------------------------------------
    # SPMD helpers
    # ------------------------------------------------------------------
    def map_ranks(self, fn: Callable[[Rank], Any]) -> List[Any]:
        """Apply ``fn`` to every rank in rank order and collect the results."""
        return [fn(rank) for rank in self.ranks]

    def run_ranks(self, tasks: Sequence["RankTask | None"]) -> List[Any]:
        """Dispatch per-rank steps through the cluster's executor.

        ``tasks[i]`` may be ``None`` to skip a rank (its result is ``None``);
        results come back in task order regardless of executor.
        """
        return self.executor.run(tasks)

    def close(self) -> None:
        """Release executor workers and shared-memory segments (idempotent).

        Only executors this cluster created (from a spec string or the
        default) are shut down; a caller-supplied instance may be shared
        with other clusters and stays open — its creator closes it.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def counters(self, phase: str) -> Sequence[PhaseCounters]:
        """Per-rank counters of ``phase`` (creating empty ones if missing)."""
        return [self.metrics.rank(r).phase(phase) for r in range(self.n_ranks)]
