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

Nothing here locks: every call arrives under the fleet's one lock
(:class:`~repro.fleet.fleet.KNNFleet`), the ops server's reads included.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.analysis.annotations import exactness_path
from repro.obs.clock import MONOTONIC, Clock
from repro.obs.tracing import Span, SpanSink
from repro.service.service import KNNService


class ReplicaDeadError(RuntimeError):
    """The targeted replica is (or just became) dead."""


class ShardUnavailableError(RuntimeError):
    """Every replica of a shard is dead; the fleet cannot answer exactly."""


class Replica:
    """One serving copy of a shard: liveness and load over the shard's
    service (``service`` is the group's, never swapped)."""

    def __init__(self, shard_id: int, replica_id: int, service: KNNService) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.service = service
        self.alive = True
        self.queries_served = 0
        self._armed_failure = False

    def kill(self) -> None:
        """Fail the replica immediately (it stops receiving everything)."""
        self.alive = False
        self._armed_failure = False

    def arm_failure(self) -> None:
        """Make the *next* query attempt die mid-flight (retry-path drill)."""
        self._armed_failure = True

    def revive(self) -> None:
        """Bring the replica back (a heal): alive, nothing armed."""
        self.alive = True
        self._armed_failure = False

    def answer(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer a batch, or die (armed failure / already dead)."""
        if not self.alive:
            raise ReplicaDeadError(f"shard {self.shard_id} replica {self.replica_id} is dead")
        if self._armed_failure:
            self.kill()
            raise ReplicaDeadError(
                f"shard {self.shard_id} replica {self.replica_id} died mid-query"
            )
        out = self.service.answer_batch(queries, k=k, at=at)
        self.queries_served += int(np.atleast_2d(queries).shape[0])
        return out


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
        while True:
            replica = self.primary()  # raises ShardUnavailableError when none left
            started = self._clock.monotonic()
            try:
                out = replica.answer(queries, k, at)
            except ReplicaDeadError:
                self._note_attempt(sink, replica, started, ok=False)
                self.deaths += 1
                self.retries += 1
                self._emit("replica_death", replica=replica.replica_id, retried=True)
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
        self.deaths += 1
        self._emit("replica_death", replica=replica_id, injected=True)

    def _emit(self, kind: str, **fields) -> None:
        """Report one ops event (no-op without an event log attached)."""
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
            replica.revive()
            healed += 1
            self._emit("replica_heal", replica=replica.replica_id, points=self.service.n_live)
        return healed
