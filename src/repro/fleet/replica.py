"""Replicated shards: read scaling, failure injection, retry-on-death.

Each shard of the fleet is a :class:`ReplicaGroup` of identical
:class:`~repro.service.service.KNNService` instances over the same shard
point set.  Reads go to the least-loaded live replica; mutations go to
every live replica so the group stays bit-identical.  Failures are
injected deliberately (tests and chaos drills): a replica can be killed
outright or armed to die *mid-query*, in which case the group transparently
retries the batch on the next-least-loaded peer — answers never change,
only the load accounting does.

Under the dispatch plane (:mod:`repro.fleet.dispatch`) a group can also
serve **hedged reads**: when a concurrent dispatcher and a ``hedge_after``
deadline are configured, an attempt that has not answered by the deadline
races a second replica on the dispatcher's replica lane and the first
answer wins — the loser is cancelled (if it never started) or discarded.
Replicas are bit-identical, so which attempt wins cannot change a single
byte of the answer; hedging only moves tail latency and the hedge
counters.  Liveness and load state are lock-guarded so concurrent shard
calls (two scatter-phase calls hitting the same group) account exactly.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path, requires_lock
from repro.analysis.runtime import guarded, new_lock
from repro.fleet.dispatch import Dispatcher, ShardCall
from repro.obs.clock import MONOTONIC, Clock
from repro.obs.profiler import phase
from repro.obs.tracing import Span, SpanSink
from repro.service.service import KNNService

#: Minimum latency samples before a percentile ``hedge_after`` spec arms
#: (a percentile over two observations is noise, not a deadline).
_MIN_HEDGE_SAMPLES = 8


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
        "in_flight": "_lock",
        "_armed_failure": "_lock",
    }

    def __init__(self, shard_id: int, replica_id: int, service: KNNService) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.service = service
        self.alive = True
        self.queries_served = 0
        #: Hedged attempts currently reserved/running on this replica;
        #: the least-loaded pick counts them so a slow attempt does not
        #: attract every hedge that fires while it runs.
        self.in_flight = 0
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
    hedge_after:
        Hedged-read deadline: ``None`` disables hedging, a float is a fixed
        deadline in seconds, and a ``"p95"``-style string tracks that
        percentile of the group's recent attempt latencies (armed only once
        :data:`_MIN_HEDGE_SAMPLES` observations exist).  Hedging needs a
        concurrent dispatcher passed into :meth:`answer`; without one the
        deadline is ignored and the serial retry path runs.
    clock:
        Injectable monotonic clock for latency samples and attempt spans
        (defaults to the shared production clock).
    events:
        Optional ops event emitter (an :class:`~repro.obs.events.EventLog`
        or a scoped facade); the group reports replica deaths/heals and
        hedge firings through it.
    """

    GUARDED_BY = {
        "retries": "_lock",
        "deaths": "_lock",
        "hedges": "_lock",
        "hedge_wins": "_lock",
        "hedge_cancels": "_lock",
        "_latencies": "_lock",
    }

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[Replica],
        hedge_after: "float | str | None" = None,
        clock: Clock | None = None,
        events=None,
    ) -> None:
        if not replicas:
            raise ValueError(f"shard {shard_id} needs at least one replica")
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self.hedge_after = hedge_after
        self._clock = clock if clock is not None else MONOTONIC
        self.events = events
        self.retries = 0
        self.deaths = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_cancels = 0
        # _lock guards pick/accounting state; _serve_lock serialises whole
        # answer() calls so concurrent shard calls against one group keep
        # the exact pick-retry-account semantics of the serial router (the
        # dispatch plane's concurrency win is across groups, and — via the
        # replica lane — across the hedged attempts within one call).
        self._lock = new_lock("ReplicaGroup._lock")
        self._serve_lock = new_lock("ReplicaGroup._serve_lock")
        self._latencies: Deque[float] = deque(maxlen=128)

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
        """Total rebuilds across the group's replicas."""
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
    def answer(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None = None,
        dispatcher: Dispatcher | None = None,
        sink: SpanSink | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact batch answer from the least-loaded live replica.

        A replica dying mid-query is retried on the next-least-loaded peer
        (the batch is re-executed whole — replicas are identical, so the
        answer is the same bytes whichever one survives).  With a
        concurrent ``dispatcher`` and an armed ``hedge_after`` deadline the
        retry path generalises to hedged reads: a late attempt races a
        second replica and the first answer wins.

        ``sink`` (the enclosing shard call's span sink when the batch is
        traced) collects one ``replica_attempt`` span per attempt, hedges
        and retries included.
        """
        with self._serve_lock:
            deadline = self._hedge_deadline()
            if deadline is None or dispatcher is None or not dispatcher.concurrent:
                return self._answer_serial(queries, k, at, sink)
            return self._answer_hedged(queries, k, at, deadline, dispatcher, sink)

    @exactness_path
    @requires_lock("_serve_lock")
    def _answer_serial(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
        sink: SpanSink | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        while True:
            replica = self.primary()  # raises ShardUnavailableError when none left
            started = self._clock.monotonic()
            try:
                out = replica.answer(queries, k, at)
                ended = self._clock.monotonic()
                self._note_latency(ended - started)
                if sink is not None:
                    sink.add(
                        Span(
                            f"replica_attempt r{replica.replica_id}",
                            "replica_attempt",
                            started,
                            ended,
                            {"shard": self.shard_id, "replica": replica.replica_id, "ok": True},
                        )
                    )
                return out
            except ReplicaDeadError as death:
                if sink is not None:
                    sink.add(
                        Span(
                            f"replica_attempt r{replica.replica_id}",
                            "replica_attempt",
                            started,
                            self._clock.monotonic(),
                            {
                                "shard": self.shard_id,
                                "replica": replica.replica_id,
                                "ok": False,
                                "died_now": death.died_now,
                            },
                        )
                    )
                with self._lock:
                    self.deaths += 1
                    self.retries += 1
                self._emit(
                    "replica_death",
                    replica=replica.replica_id,
                    died_now=death.died_now,
                    retried=True,
                )

    @exactness_path
    @requires_lock("_serve_lock")
    def _answer_hedged(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
        deadline: float,
        dispatcher: Dispatcher,
        sink: SpanSink | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One hedged read: primary attempt, then race a peer past the deadline.

        Every attempt runs on the dispatcher's replica lane (a leaf pool,
        so a shard-lane worker blocked here can never deadlock the shard
        lane).  The primary is preferred when both attempts finish; the
        loser is cancelled if it never started, otherwise discarded — its
        eventual death (if any) still lands in the death counter exactly
        once via the done callback.

        Traced attempts record into per-attempt sinks (the replica-lane
        worker is each sink's single writer); a resolved attempt's spans
        fold into the shard call's ``sink`` here, in the submitting
        thread.  A discarded-while-running loser's spans are dropped —
        nothing may read a sink a worker might still be writing — but the
        submitting thread leaves an instant marker span in its place so a
        fired hedge is always visible in the trace.
        """
        while True:
            replica = self._reserve()  # raises ShardUnavailableError when none left
            primary_fut, primary_sink = self._submit_attempt(
                dispatcher, replica, queries, k, at, sink
            )
            try:
                out = primary_fut.result(timeout=deadline)
                self._fold_attempt(sink, primary_sink)
                return out
            except FutureTimeoutError:
                pass
            except ReplicaDeadError as death:
                self._fold_attempt(sink, primary_sink)
                self._count_dead_attempt(death)
                continue
            hedge_replica = self._reserve(exclude=replica)
            if hedge_replica is None:
                # No live peer to race; ride the slow attempt out.
                try:
                    out = primary_fut.result()
                    self._fold_attempt(sink, primary_sink)
                    return out
                except ReplicaDeadError as death:
                    self._fold_attempt(sink, primary_sink)
                    self._count_dead_attempt(death)
                    continue
            with self._lock:
                self.hedges += 1
            self._emit(
                "hedge_fired",
                replica=replica.replica_id,
                hedge_replica=hedge_replica.replica_id,
                deadline_s=deadline,
            )
            hedge_fut, hedge_sink = self._submit_attempt(
                dispatcher, hedge_replica, queries, k, at, sink
            )
            attempts = [
                (primary_fut, replica, primary_sink),
                (hedge_fut, hedge_replica, hedge_sink),
            ]
            pending = {primary_fut, hedge_fut}
            winner = None
            out = None
            while pending and winner is None:
                done, _ = futures_wait(pending, return_when=FIRST_COMPLETED)
                # Deterministic preference: the primary attempt wins a
                # simultaneous finish, so hedge_wins counts true saves only.
                for fut, _rep, attempt_sink in attempts:
                    if fut not in done or fut not in pending:
                        continue
                    pending.discard(fut)
                    exc = fut.exception()
                    self._fold_attempt(sink, attempt_sink)
                    if exc is None:
                        winner = fut
                        out = fut.result()
                        break
                    if isinstance(exc, ReplicaDeadError):
                        self._count_dead_attempt(exc)
                        continue
                    self._discard([a for a in attempts if a[0] in pending], sink)
                    raise exc
            if winner is None:
                continue  # both attempts died; reserve afresh (or go loud)
            if winner is hedge_fut:
                with self._lock:
                    self.hedge_wins += 1
            self._discard([a for a in attempts if a[0] in pending], sink)
            return out

    def _submit_attempt(
        self,
        dispatcher: Dispatcher,
        replica: Replica,
        queries: np.ndarray,
        k: int,
        at: float | None,
        sink: SpanSink | None = None,
    ):
        """Submit one replica-lane attempt: ``(future, attempt sink)``."""
        attempt_sink = SpanSink(self._clock) if sink is not None else None
        fut = dispatcher.submit_hedge(
            ShardCall(
                self.shard_id,
                self._run_attempt,
                (replica, queries, k, at),
                sink=attempt_sink,
                label=f"replica_attempt r{replica.replica_id}",
                cat="replica_attempt",
            )
        )
        return fut, attempt_sink

    @staticmethod
    def _fold_attempt(sink: SpanSink | None, attempt_sink: SpanSink | None) -> None:
        """Move a resolved attempt's spans into the shard call's sink.

        Only legal after the attempt's future resolved in this thread:
        the future's own synchronisation orders the worker's last span
        write before this read.
        """
        if sink is not None and attempt_sink is not None:
            sink.extend(attempt_sink.spans)

    def _run_attempt(
        self,
        replica: Replica,
        queries: np.ndarray,
        k: int,
        at: float | None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replica-lane body of one hedged attempt (always releases the
        reservation taken by :meth:`_reserve`)."""
        try:
            started = self._clock.monotonic()
            out = replica.answer(queries, k, at)
            self._note_latency(self._clock.monotonic() - started)
            return out
        finally:
            # in_flight is the replica's own guarded state: reservations are
            # *picked* under the group lock but counted under the replica
            # lock, so replica-lane threads release without racing the pick.
            with replica._lock:
                replica.in_flight -= 1

    def _reserve(self, exclude: Replica | None = None) -> Optional[Replica]:
        """Atomically pick and reserve the least-loaded live replica.

        The pick key adds the reservation count to ``queries_served`` so a
        replica already running a slow attempt does not attract the hedge
        racing it.  With ``exclude`` set (hedge pick) a group with no other
        live replica returns ``None`` instead of raising — the caller rides
        out the original attempt.
        """
        with self._lock:
            alive = [r for r in self.replicas if r.alive and r is not exclude]
            if not alive:
                if exclude is not None:
                    return None
                raise ShardUnavailableError(f"shard {self.shard_id}: every replica is dead")
            best = min(alive, key=lambda r: (r.queries_served + r.in_flight, r.replica_id))
            with best._lock:
                best.in_flight += 1
            return best

    def _discard(
        self,
        losers: List[Tuple[object, Replica, SpanSink | None]],
        sink: SpanSink | None = None,
    ) -> None:
        """Cancel (or disown) losing hedge attempts.

        A successful cancel means the attempt never ran, so its reservation
        is released here; a running loser keeps its own accounting — it
        releases the reservation itself and reports a mid-flight death
        through the done callback.

        Tracing: a loser that already *resolved* is safe to fold (the
        future's synchronisation ordered the worker's span writes before
        this read); a loser still running gets an instant marker span
        written by this thread instead — its own sink stays untouched.
        """
        for fut, replica, attempt_sink in losers:
            if fut.cancel():
                with self._lock:
                    self.hedge_cancels += 1
                    with replica._lock:
                        replica.in_flight -= 1
                if sink is not None:
                    sink.instant(
                        f"replica_attempt r{replica.replica_id} cancelled",
                        "replica_attempt",
                        shard=self.shard_id,
                        replica=replica.replica_id,
                        cancelled=True,
                    )
                continue
            if fut.done():
                self._fold_attempt(sink, attempt_sink)
            elif sink is not None:
                sink.instant(
                    f"replica_attempt r{replica.replica_id} discarded",
                    "replica_attempt",
                    shard=self.shard_id,
                    replica=replica.replica_id,
                    discarded=True,
                )
            fut.add_done_callback(self._note_discarded)

    def _note_discarded(self, fut) -> None:
        if fut.cancelled():
            return
        exc = fut.exception()
        if isinstance(exc, ReplicaDeadError):
            self._count_dead_attempt(exc)

    def _count_dead_attempt(self, death: ReplicaDeadError) -> None:
        with self._lock:
            self.retries += 1
            if death.died_now:
                self.deaths += 1
        if death.died_now:
            self._emit("replica_death", died_now=True, retried=True)

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

    def _hedge_deadline(self) -> Optional[float]:
        """Current hedged-read deadline in seconds, or ``None`` when off."""
        spec = self.hedge_after
        if spec is None:
            return None
        if isinstance(spec, str):
            pct = float(spec.lstrip("pP"))
            with self._lock:
                if len(self._latencies) < _MIN_HEDGE_SAMPLES:
                    return None
                window = np.fromiter(self._latencies, dtype=np.float64, count=len(self._latencies))
            return float(np.percentile(window, pct))
        return float(spec)

    def _note_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(seconds)

    # ------------------------------------------------------------------
    # Mutation (applied to every live replica, keeping them identical)
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, ids: np.ndarray, at: float | None = None) -> None:
        """Insert into every live replica; loud when none is left.

        A mutation against a fully-dead shard must fail, not silently drop
        the data (there would be no peer to heal from).
        """
        if self.n_alive == 0:
            raise ShardUnavailableError(f"shard {self.shard_id}: every replica is dead")
        for replica in self.replicas:
            if replica.alive:
                replica.service.insert(points, ids=ids, at=at)

    def delete(self, ids: np.ndarray, at: float | None = None) -> None:
        """Delete from every live replica; loud when none is left."""
        if self.n_alive == 0:
            raise ShardUnavailableError(f"shard {self.shard_id}: every replica is dead")
        for replica in self.replicas:
            if replica.alive:
                replica.service.delete(ids, at=at)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def heal(self, at: float | None = None) -> int:
        """Re-seed every dead replica from a healthy peer; returns count.

        The donor's *live* arrays (tree minus tombstones plus delta) are
        refit into a fresh service carrying the dead replica's policies —
        a healed replica serves exactly the shard's live set from the first
        query on (its delta buffer starts empty, so only the unspecified
        identity of exactly-tied k-th neighbours can differ from a peer).
        """
        donor = self.primary()  # raises when the whole group is dead
        points, ids = donor.service.live_arrays()
        healed = 0
        for replica in self.replicas:
            if replica.alive:
                continue
            dead = replica.service
            # Cancel any in-flight background rebuild FIRST: its backend may
            # hold pooled-executor ownership (refit transfers it), and the
            # ownership must flow dead-bg -> dead.backend -> healed backend
            # before dead.close() runs, or the close would shut the pool
            # under the healed replica.
            dead.cancel_background()
            service = KNNService(
                dead.backend.refit(points, ids),
                k=dead.k,
                batch_policy=dead.batch_policy,
                rebuild_policy=dead.rebuild_policy,
                cache_capacity=dead.cache.capacity,
                retention=dead.records.capacity,
                service_time=dead._service_time,
                background_rebuild=dead.background_rebuild,
                snapshot_root=dead.snapshot_root,
                clock=dead._clock,
                events=dead.events,
            )
            if at is not None:
                # flush() on an empty queue is exactly a locked clock
                # advance (nothing is pending on a fresh service).
                service.flush(at)
            # The dead service's backend already transferred any pooled
            # executor ownership through refit above; closing it now only
            # releases what it still owns.
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
                points=int(np.asarray(ids).size),
            )
        return healed
