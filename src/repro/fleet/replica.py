"""Replicated shards: read scaling, failure injection, retry-on-death.

Each shard of the fleet is one :class:`~repro.service.service.KNNService`
over the shard's point set, owned by a :class:`ReplicaGroup`, and served
by ``n_replicas`` :class:`Replica` tokens.  A replica carries only
liveness, an armed failure and its load; every replica answers through
the shard's one service, so a write is applied once, a fold runs once,
and every live replica answers byte for byte alike, ids included.  Reads
go to the least-loaded live replica.  Failures are injected deliberately
(tests and chaos drills): a replica can be killed outright or armed to
die *mid-query*, in which case the group transparently retries the batch
on the next-least-loaded peer — answers never change, only the load
accounting does.  A heal brings a dead replica back to life; there is no
state to copy.

Liveness and load state are lock-guarded: the serving path is one
synchronous caller, but the ops server and the profiler read the same
fields from other threads.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.analysis.annotations import exactness_path
from repro.analysis.runtime import guarded, new_lock
from repro.obs.clock import MONOTONIC, Clock
from repro.obs.profiler import phase
from repro.obs.tracing import Span, SpanSink
from repro.service.service import KNNService


class ReplicaDeadError(RuntimeError):
    """The targeted replica is (or just became) dead.

    ``died_now`` distinguishes an attempt that actually killed the replica
    (armed failure firing mid-query) from one that found it already dead —
    the group's death counter must move exactly once per real death, even
    when concurrent attempts race against the same dying replica.
    """

    def __init__(self, message: str, died_now: bool = True) -> None:
        super().__init__(message)
        self.died_now = died_now


class ShardUnavailableError(RuntimeError):
    """Every replica of a shard is dead; the fleet cannot answer exactly."""


@guarded
class Replica:
    """One serving copy of a shard: liveness and load over the shard's
    service (``service`` is the group's, never swapped)."""

    GUARDED_BY = {
        "alive": "_lock",
        "queries_served": "_lock",
        "_armed_failure": "_lock",
    }

    def __init__(self, shard_id: int, replica_id: int, service: KNNService) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.service = service
        self.alive = True
        self.queries_served = 0
        self._armed_failure = False
        self._lock = new_lock("Replica._lock")

    def kill(self) -> None:
        """Fail the replica immediately (it stops receiving everything)."""
        with self._lock:
            self.alive = False
            self._armed_failure = False

    def arm_failure(self) -> None:
        """Make the *next* query attempt die mid-flight (retry-path drill)."""
        with self._lock:
            self._armed_failure = True

    def answer(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer a batch, or die (armed failure / already dead).

        The liveness check-and-kill is atomic, so of any number of
        concurrent attempts racing an armed replica exactly one observes
        ``died_now`` — the one that pulled the trigger.
        """
        with self._lock:
            if not self.alive:
                raise ReplicaDeadError(
                    f"shard {self.shard_id} replica {self.replica_id} is dead", died_now=False
                )
            if self._armed_failure:
                self.alive = False
                self._armed_failure = False
                raise ReplicaDeadError(
                    f"shard {self.shard_id} replica {self.replica_id} died mid-query",
                    died_now=True,
                )
        with phase("replica.serve"):
            out = self.service.answer_batch(queries, k=k, at=at)
        with self._lock:
            self.queries_served += int(np.atleast_2d(queries).shape[0])
        return out

    def restore_load(self, queries_served: int) -> None:
        """Reset the served-query counter (fleet rollback after a failed batch)."""
        with self._lock:
            self.queries_served = queries_served


@guarded
class ReplicaGroup:
    """One shard: its service and its replicas, with least-loaded routing
    and retries.

    Parameters
    ----------
    shard_id, service, n_replicas:
        The shard, the one service holding its live set, and how many
        replicas serve it.
    clock:
        Injectable monotonic clock for attempt spans (defaults to the
        shared production clock).
    events:
        Optional ops event emitter (an :class:`~repro.obs.events.EventLog`
        or a scoped facade); the group reports replica deaths and heals
        through it.
    """

    GUARDED_BY = {
        "retries": "_lock",
        "deaths": "_lock",
    }

    def __init__(
        self,
        shard_id: int,
        service: KNNService,
        n_replicas: int,
        clock: Clock | None = None,
        events=None,
    ) -> None:
        if n_replicas <= 0:
            raise ValueError(f"shard {shard_id} needs at least one replica, got {n_replicas}")
        self.shard_id = shard_id
        self.service = service
        self.replicas = [Replica(shard_id, r, service) for r in range(n_replicas)]
        self._clock = clock if clock is not None else MONOTONIC
        self.events = events
        self.retries = 0
        self.deaths = 0
        # _lock guards the accounting counters; _serve_lock serialises
        # whole answer() calls so two callers against one group keep the
        # exact pick-retry-account semantics.
        self._lock = new_lock("ReplicaGroup._lock")
        self._serve_lock = new_lock("ReplicaGroup._serve_lock")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def n_alive(self) -> int:
        return sum(1 for r in self.replicas if r.alive)

    @property
    def n_live(self) -> int:
        """Live points of the shard."""
        return self.service.n_live

    @property
    def rebuilds(self) -> int:
        """Folds of this shard (``repro_service_rebuilds_total{shard}``)."""
        return self.service.rebuilds

    def primary(self) -> Replica:
        """The least-loaded live replica (lowest id on ties)."""
        alive = [r for r in self.replicas if r.alive]
        if not alive:
            raise ShardUnavailableError(f"shard {self.shard_id}: every replica is dead")
        return min(alive, key=lambda r: (r.queries_served, r.replica_id))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @exactness_path
    def answer(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None = None,
        sink: SpanSink | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact batch answer from the least-loaded live replica.

        A replica dying mid-query is retried on the next-least-loaded peer
        (the batch is re-executed whole — replicas are identical, so the
        answer is the same bytes whichever one survives).

        ``sink`` (the batch's span sink when it is traced) collects one
        ``replica_attempt`` span per attempt, retries included.
        """
        with self._serve_lock:
            while True:
                replica = self.primary()  # raises ShardUnavailableError when none left
                started = self._clock.monotonic()
                try:
                    out = replica.answer(queries, k, at)
                except ReplicaDeadError as death:
                    self._note_attempt(sink, replica, started, ok=False, died_now=death.died_now)
                    with self._lock:
                        self.deaths += 1
                        self.retries += 1
                    self._emit(
                        "replica_death",
                        replica=replica.replica_id,
                        died_now=death.died_now,
                        retried=True,
                    )
                    continue
                self._note_attempt(sink, replica, started, ok=True)
                return out

    def _note_attempt(
        self, sink: SpanSink | None, replica: Replica, started: float, **meta
    ) -> None:
        """Record one ``replica_attempt`` span (no-op on an untraced batch)."""
        if sink is not None:
            sink.add(
                Span(
                    f"replica_attempt r{replica.replica_id}",
                    "replica_attempt",
                    started,
                    self._clock.monotonic(),
                    {"shard": self.shard_id, "replica": replica.replica_id, **meta},
                )
            )

    def note_death(self, replica_id: int | None = None) -> None:
        """Count one externally-injected replica death (fleet kill switch)."""
        with self._lock:
            self.deaths += 1
        self._emit("replica_death", replica=replica_id, died_now=True, injected=True)

    def _emit(self, kind: str, **fields) -> None:
        """Report one ops event (no-op without an event log attached).

        Never called while holding ``self._lock`` — the event log is a
        leaf lock and stays out of this group's acquisition order.
        """
        if self.events is not None:
            self.events.emit(kind, **fields)

    # ------------------------------------------------------------------
    # Mutation (applied once, to the shard's service)
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, ids: np.ndarray, at: float | None = None) -> None:
        """Insert into the shard; loud when no replica is left.

        A mutation against a fully-dead shard must fail, not silently drop
        the data.
        """
        self._require_alive()
        self.service.insert(points, ids=ids, at=at)

    def delete(self, ids: np.ndarray, at: float | None = None) -> None:
        """Delete from the shard; loud when no replica is left."""
        self._require_alive()
        self.service.delete(ids, at=at)

    def rebuild(self, at: float | None = None) -> None:
        """Fold the shard's updates once, served by every live replica."""
        self._require_alive()
        self.service.rebuild(at=at)

    def _require_alive(self) -> None:
        if not self.n_alive:
            raise ShardUnavailableError(f"shard {self.shard_id}: every replica is dead")

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def heal(self) -> int:
        """Bring every dead replica back while a peer lives; returns count.

        Every replica serves the shard's one service, so a healed replica
        answers byte for byte like its peers, ids included, with nothing
        to copy.  A fully-dead group stays down (``ShardUnavailableError``).
        """
        self._require_alive()
        healed = 0
        for replica in self.replicas:
            if replica.alive:
                continue
            with replica._lock:
                replica.alive = True
                replica._armed_failure = False
            healed += 1
            self._emit("replica_heal", replica=replica.replica_id, points=self.service.n_live)
        return healed
