"""Replicated shards: read scaling, failure injection, retry-on-death.

Each shard of the fleet is a :class:`ReplicaGroup` of identical
:class:`~repro.service.service.KNNService` instances over the same shard
point set.  Reads go to the least-loaded live replica; mutations go to
every live replica so the group holds one live set.  Rebuilds are per
shard, not per replica: a mutation goes to the first live replica first,
and when it folds there, every other live replica adopts that index
instead of taking the mutation — one fold, one snapshot and one backend
object per shard version.  A dead replica heals the same way, by adopting
a live peer.  Failures are injected deliberately (tests and chaos
drills): a replica can be killed outright or armed to die *mid-query*, in
which case the group transparently retries the batch on the
next-least-loaded peer — answers never change, only the load accounting
does.

Liveness and load state are lock-guarded: the serving path is one
synchronous caller, but the ops server and the profiler read the same
fields from other threads.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

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
    """One serving copy of a shard: a service plus liveness/load state."""

    GUARDED_BY = {
        "service": "_lock",
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
            # Pin the service under the same lock as the liveness check:
            # heal() swaps self.service while holding _lock, so an attempt
            # that saw alive=True always serves on the matching service.
            service = self.service
        with phase("replica.serve"):
            out = service.answer_batch(queries, k=k, at=at)
        with self._lock:
            self.queries_served += int(np.atleast_2d(queries).shape[0])
        return out

    def restore_load(self, queries_served: int) -> None:
        """Reset the served-query counter (fleet rollback after a failed batch)."""
        with self._lock:
            self.queries_served = queries_served


@guarded
class ReplicaGroup:
    """All replicas of one shard, with least-loaded routing and retries.

    Parameters
    ----------
    shard_id, replicas:
        The shard and its serving copies.
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
        replicas: Sequence[Replica],
        clock: Clock | None = None,
        events=None,
    ) -> None:
        if not replicas:
            raise ValueError(f"shard {shard_id} needs at least one replica")
        self.shard_id = shard_id
        self.replicas = list(replicas)
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
        """Live points of the shard (0 when every replica is dead)."""
        for replica in self.replicas:
            if replica.alive:
                return replica.service.n_live
        return 0

    @property
    def rebuilds(self) -> int:
        """Folds of this shard: its replicas share each one, and only the
        replica that ran it counts it (``KNNService.rebuilds``,
        ``repro_service_rebuilds_total{shard,replica}``)."""
        return sum(r.service.rebuilds for r in self.replicas)

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
    # Mutation (applied to every live replica, one build per shard)
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, ids: np.ndarray, at: float | None = None) -> None:
        """Insert into every live replica; loud when none is left.

        A mutation against a fully-dead shard must fail, not silently drop
        the data (there would be no peer to heal from).
        """
        self._apply(lambda service: service.insert(points, ids=ids, at=at))

    def delete(self, ids: np.ndarray, at: float | None = None) -> None:
        """Delete from every live replica; loud when none is left."""
        self._apply(lambda service: service.delete(ids, at=at))

    def rebuild(self, at: float | None = None) -> None:
        """Fold the shard's updates once, served by every live replica."""
        self._apply(lambda service: service.rebuild(at=at))

    def _apply(self, mutate: Callable[[KNNService], object]) -> None:
        """Run ``mutate`` on the first live replica, then bring every other
        live replica to the same state, so that the shard folds at most once.

        A peer serving the first replica's index takes the mutation
        itself.  A peer serving another one adopts the first replica's: it
        folded just now, or a read's ``at`` fired a staleness fold on one
        replica alone since the last write, and the group converges here.
        """
        live = [r.service for r in self.replicas if r.alive]
        if not live:
            raise ShardUnavailableError(f"shard {self.shard_id}: every replica is dead")
        first, *peers = live
        mutate(first)
        for service in peers:
            if service.backend is first.backend:
                mutate(service)
            else:
                service.adopt(first)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def heal(self, at: float | None = None) -> int:
        """Re-seed every dead replica from a healthy peer; returns count.

        A fresh service carrying the dead replica's policies and snapshot
        root adopts the donor: same backend object, a copy of its delta
        buffer and tombstones.  Nothing is refit, so a healed replica
        answers byte for byte like its peers, ids included, from its first
        query on.  The dead service's backend is closed only when no live
        replica still serves it.
        """
        donor = self.primary()  # raises when the whole group is dead
        healed = 0
        for replica in self.replicas:
            if replica.alive:
                continue
            dead = replica.service
            service = KNNService(
                donor.service.backend,
                k=dead.k,
                batch_policy=dead.batch_policy,
                rebuild_policy=dead.rebuild_policy,
                cache_capacity=dead.cache.capacity,
                retention=dead.records.capacity,
                service_time=dead._service_time,
                snapshot_root=dead.snapshot_root,
                clock=dead._clock,
                events=dead.events,
            )
            service.adopt(donor.service)
            if at is not None:
                # flush() on an empty queue is exactly a locked clock
                # advance (nothing is pending on a fresh service).
                service.flush(at)
            if all(dead.backend is not r.service.backend for r in self.replicas if r.alive):
                dead.close()
            # Swap service and flip liveness atomically: a concurrent
            # attempt either sees (dead, old service) and raises, or
            # (alive, healed service) — never a half-healed replica.
            with replica._lock:
                replica.service = service
                replica.alive = True
                replica._armed_failure = False
            healed += 1
            self._emit(
                "replica_heal",
                replica=replica.replica_id,
                donor=donor.replica_id,
                points=service.n_live,
            )
        return healed
