"""The sharded serving fleet: one front door over many replicated shards.

:class:`KNNFleet` is the multi-tenant, heavy-traffic face of the system:
the dataset is cut into shard regions by a
:class:`~repro.fleet.planner.ShardPlanner`, every shard is served by a
:class:`~repro.fleet.replica.ReplicaGroup` (one
:class:`~repro.service.service.KNNService` and its replicas), and queries are
answered by the :class:`~repro.fleet.router.Router`'s region-pruned
scatter-gather — byte-equal distances to a single unsharded service, at a
fan-out that shrinks as regions get tighter.

Requests are admission-controlled
(:class:`~repro.fleet.admission.AdmissionController`) into the bounded
micro-batch queue of :mod:`repro.service.queue`, the same model a single
service runs, and accounted request by request — so the fleet-wide
:meth:`KNNFleet.stats` reports honest p50/p99 latency, QPS, shed/reject
counts and measured fan-out.

Streaming mutations route to the owning shard (by region, id hash, or
round-robin, matching the plan) and are applied once, to the shard's one
service.  The write that trips the rebuild policy folds the shard's
updates into its tree once, in the foreground (a re-pack under the tree's
split planes), and every replica of the shard serves the result — with an
optional versioned snapshot trail under ``snapshot_root``, one version per
shard build (``shardNN/vNNNN`` + a ``CURRENT`` pointer per shard).

Every shard call runs synchronously through the fleet's one
:class:`~repro.fleet.dispatch.SerialDispatcher`
(:mod:`repro.fleet.dispatch`), which counts it and, on a traced batch,
records its span.

Threads meet at the fleet's public surface and nowhere below it: one
re-entrant lock serialises every public call that reads or mutates serving
state, the ops server's reads included, and the groups, replicas,
services, router, dispatcher and admission ledger beneath take no lock.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.simulator import reject_negative_ids
from repro.fleet.admission import ADMIT, REJECT, SHED, AdmissionController, AdmissionPolicy
from repro.fleet.dispatch import SerialDispatcher
from repro.fleet.planner import ShardPlan, ShardPlanner
from repro.fleet.replica import Replica, ReplicaGroup, ShardUnavailableError
from repro.fleet.router import Router
from repro.kdtree.tree import KDTreeConfig
from repro.obs.clock import MONOTONIC, Clock
from repro.obs.collectors import fleet_families
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram, ObsRegistry, log_buckets
from repro.obs.server import OpsServer
from repro.obs.slo import SLO, SLOEngine, fleet_slos
from repro.obs.tracing import Tracer
from repro.service.backends import LocalTreeBackend
from repro.service.delta import checked_ids
from repro.service.queue import MicroBatchPolicy, MicroBatchQueue, RecordRing, answer_by_k
from repro.service.service import KNNService, RebuildPolicy


class RequestRejectedError(KeyError):
    """The request was refused (or shed) by admission control."""


class KNNFleet:
    """Region-routed, replicated, admission-controlled serving fleet.

    Build one with :meth:`KNNFleet.build`; the constructor wires
    pre-assembled parts (tests exercise it directly).

    The fleet owns one re-entrant lock, ``_lock``, the only lock of the
    serving stack.  Every public method that reads or mutates serving
    state — the query, mutation, failure-injection and repair calls,
    :meth:`stats`, :meth:`metrics_text`, :meth:`close` and
    :attr:`closed` — runs under it.  The ops server's threads read through
    it (``/metrics``, ``/healthz``, ``/readyz``, ``/slo``), so a scrape
    waits out the batch in flight.  It is always the outermost lock: the
    obs plane's locks are leaves taken under it.  It is re-entrant because
    :meth:`query` calls :meth:`submit` and :meth:`result`.
    """

    GUARDED_BY = {"_closed": "_lock", "_ops_server": "_lock"}

    def __init__(
        self,
        plan: ShardPlan,
        groups: Sequence[ReplicaGroup],
        initial_ids: np.ndarray,
        k: int = 5,
        batch_policy: MicroBatchPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        retention: int = 65536,
        service_time: Callable[[int], float] | None = None,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        slos: "List[SLO] | None" = None,
        slo_windows: "Tuple[Tuple[float, float], ...] | None" = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.plan = plan
        self.groups = list(groups)
        # Observability plane: one injectable clock for every wall-time
        # read, a sampled tracer (REPRO_OBS; off by default), a structured
        # ops event log, and a metrics registry scraping the whole fleet.
        self._clock = clock if clock is not None else MONOTONIC
        self.tracer = tracer if tracer is not None else Tracer(clock=self._clock)
        self.events = events if events is not None else EventLog(clock=self._clock)
        # Pre-assembled groups and services that came without an event sink
        # get shard-scoped views of the fleet log (replica deaths, heals,
        # rebuilds all land in one stream).
        for group in self.groups:
            scoped = self.events.scoped(shard=group.shard_id)
            if group.events is None:
                group.events = scoped
            if group.service.events is None:
                group.service.events = scoped
        self.dispatcher = SerialDispatcher()
        self.router = Router(plan, self.groups, dispatcher=self.dispatcher, clock=self._clock)
        self.metrics = ObsRegistry()
        self._latency_hist = self.metrics.histogram(
            "repro_fleet_request_latency_seconds",
            "End-to-end request latency (arrival to completion, logical time).",
            buckets=log_buckets(1e-6, 10.0, 3),
        )
        self._batch_hist = self.metrics.histogram(
            "repro_fleet_batch_size",
            "Dispatched micro-batch sizes.",
            buckets=log_buckets(1.0, 4096.0, 3),
        )
        self.metrics.register_callback(lambda: fleet_families(self))
        self.k = k
        self.batch_policy = batch_policy or MicroBatchPolicy()
        self.admission = AdmissionController(admission_policy)
        self._queue = MicroBatchQueue(self.batch_policy, retention, service_time)
        self.records: RecordRing = self._queue.records
        # Set when a dispatch failed on a fully-dead shard and its batch was
        # requeued: automatic (deadline/size-trigger) dispatching pauses so
        # the poisoned batch cannot wedge unrelated operations; an explicit
        # flush() retries it (e.g. after heal()).
        self._stalled = False
        # The rejection ledger is ring-bounded like every other per-request
        # structure: a long-lived fleet under sustained overload must not
        # grow without bound precisely when it is overloaded.
        self._rejected: OrderedDict[int, None] = OrderedDict()
        self._dims = int(self.groups[0].service.backend.dims)
        initial_ids = np.asarray(initial_ids, dtype=np.int64)
        self._id_to_shard: Dict[int, int] = {
            int(i): int(s) for i, s in zip(initial_ids, plan.assignment)
        }
        self._n_assigned = int(initial_ids.shape[0])
        self._next_auto_id = int(initial_ids.max()) + 1 if initial_ids.size else 0
        self._lock = threading.RLock()
        self._closed = False
        # Active ops surface: a declarative SLO engine re-evaluated on
        # every dispatch and scrape (custom ``slos`` override the standard
        # latency/availability/survival set), and the HTTP ops server
        # started lazily by serve_ops().
        self.slo = SLOEngine(
            slos if slos is not None else fleet_slos(self, windows=slo_windows),
            clock=self._clock,
            events=self.events,
        )
        self.metrics.register_callback(self.slo.families)
        self._ops_server: OpsServer | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: np.ndarray,
        ids: np.ndarray | None = None,
        n_shards: int = 4,
        n_replicas: int = 1,
        strategy: str = "tree",
        k: int = 5,
        config: KDTreeConfig | None = None,
        batch_policy: MicroBatchPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        rebuild_policy: RebuildPolicy | None = None,
        retention: int = 65536,
        snapshot_root: str | Path | None = None,
        service_time: Callable[[int], float] | None = None,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        slos: "List[SLO] | None" = None,
        slo_windows: "Tuple[Tuple[float, float], ...] | None" = None,
    ) -> "KNNFleet":
        """Plan, shard, replicate and wire a fleet over ``points``.

        Each shard is one :class:`KNNService` served by ``n_replicas``
        replicas.  When ``snapshot_root`` is given, each shard build is
        written once, as a versioned snapshot under
        ``snapshot_root/shardNN/``.

        ``clock`` / ``tracer`` / ``events`` inject the observability
        plane (see :mod:`repro.obs`): one monotonic clock threaded through
        every wall-time read, a sampled per-batch tracer (``REPRO_OBS``),
        and the structured ops event log.  All default to real-clock /
        env-controlled instances; :meth:`metrics_text` works either way.
        """
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not np.isfinite(points).all():
            raise ValueError("points must have finite coordinates (found nan or inf)")
        n = points.shape[0]
        ids = np.arange(n, dtype=np.int64) if ids is None else checked_ids(ids)
        reject_negative_ids(ids)
        plan = ShardPlanner(n_shards, strategy=strategy).plan(points, ids)
        if np.bincount(plan.assignment, minlength=n_shards).min() == 0:
            # Only the non-spatial strategies can get here (the tree planner
            # rejects empty regions itself): e.g. hash-sharding ids that all
            # share a residue class.
            raise ValueError(f"{strategy!r} plan left a shard empty; use fewer shards")
        groups: List[ReplicaGroup] = []
        for shard in range(n_shards):
            mask = plan.assignment == shard
            root = Path(snapshot_root) / f"shard{shard:02d}" if snapshot_root is not None else None
            service = KNNService(
                LocalTreeBackend.fit(points[mask], ids=ids[mask], config=config),
                k=k,
                rebuild_policy=rebuild_policy,
                # Shards answer through the router, not their own
                # micro-batch queue, so the per-service result cache would
                # never be consulted: disable it.
                cache_capacity=0,
                service_time=service_time,
                snapshot_root=root,
                clock=clock,
            )
            groups.append(ReplicaGroup(shard, service, n_replicas, clock=clock))
        return cls(
            plan,
            groups,
            ids,
            k=k,
            batch_policy=batch_policy,
            admission_policy=admission_policy,
            retention=retention,
            service_time=service_time,
            clock=clock,
            tracer=tracer,
            events=events,
            slos=slos,
            slo_windows=slo_windows,
        )

    def close(self) -> None:
        """Stop the ops server.

        Idempotent and safe under concurrent callers: the first caller
        sets ``_closed`` and performs the teardown under the fleet lock.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # No HTTP handler should observe a half-closed fleet.
            if self._ops_server is not None:
                self._ops_server.close()

    def __enter__(self) -> "KNNFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def now(self) -> float:
        """Current logical time (max event time seen so far)."""
        return self._queue.now

    @property
    def n_pending(self) -> int:
        """Requests queued but not yet dispatched."""
        return len(self._queue.pending)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        with self._lock:
            return self._closed

    @property
    def latency_histogram(self) -> Histogram:
        """The end-to-end request latency histogram (logical seconds)."""
        return self._latency_hist

    def latency_quantile(self, q: float) -> float:
        """Interpolated end-to-end latency quantile from the histogram.

        Unlike the retained-window order statistics this covers *every*
        completed request since fleet start at O(buckets) cost — the
        source :meth:`stats` and the SLO engine report from.
        """
        return self._latency_hist.quantile(q)

    def serve_ops(self, host: str = "127.0.0.1", port: int = 0) -> OpsServer:
        """Start (or return) the HTTP ops endpoint bound to this fleet.

        ``port=0`` binds an ephemeral port — read ``.port``/``.url`` on
        the returned :class:`~repro.obs.server.OpsServer`.  The server is
        owned by the fleet and torn down in :meth:`close`; calling again
        after an explicit ``server.close()`` starts a fresh one.
        """
        with self._lock:
            if self._ops_server is None or self._ops_server.closed:
                self._ops_server = OpsServer(self, host=host, port=port)
            return self._ops_server

    @property
    def n_live(self) -> int:
        """Live points across every shard."""
        return sum(group.n_live for group in self.groups)

    def target_batch_size(self) -> int:
        """Current micro-batch target under the adaptive policy."""
        return self._queue.target_batch_size()

    def stats(self) -> Dict[str, object]:
        """Fleet-wide aggregated statistics.

        One flat latency summary (p50/p99/mean/max, QPS — same keys as
        :meth:`KNNService.latency_summary`) plus the admission ledger, the
        router's measured fan-out, and a per-shard health row.  A row's
        ``rebuilds`` counts folds of the shard, as
        ``repro_service_rebuilds_total{shard}`` does.
        """
        with self._lock:
            summary: Dict[str, object] = dict(self.records.summary())
            # The retained-window order statistics are replaced by histogram
            # interpolation: same keys, but covering every completed request
            # since fleet start (and identical to what /metrics and the SLO
            # engine see), not just the last ``retention`` records.
            summary["p50_latency_s"] = self.latency_quantile(0.5)
            summary["p99_latency_s"] = self.latency_quantile(0.99)
            summary["slo"] = self.slo.status()
            summary["admission"] = self.admission.stats.as_dict()
            summary["router"] = self.router.stats.as_dict()
            summary["dispatch"] = self.dispatcher.stats.as_dict()
            summary["n_live"] = float(self.n_live)
            summary["shards"] = [
                {
                    "shard": group.shard_id,
                    "n_live": group.n_live,
                    "replicas_alive": group.n_alive,
                    "replicas": group.n_replicas,
                    "rebuilds": group.rebuilds,
                    "retries": group.retries,
                    "deaths": group.deaths,
                }
                for group in self.groups
            ]
            return summary

    def metrics_text(self) -> str:
        """One Prometheus text-format (0.0.4) scrape of the whole fleet.

        Combines the registry's own instruments (latency / batch-size
        histograms) with every scrape-time collector family
        (:func:`repro.obs.collectors.fleet_families`): admission ledger,
        router phases and fan-out, dispatch-plane counters, per-replica
        health and load, per-shard service cache/rebuild accounting, ops
        event counts and tracer sampling stats.  The output round-trips
        through the strict parser in
        :func:`repro.obs.prometheus.parse_prometheus_text`.
        """
        with self._lock:
            return self.metrics.render()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        at: float | None = None,
    ) -> int:
        """Enqueue one query through admission control; returns its id.

        A rejected (or later shed) request id still resolves — to a
        :class:`RequestRejectedError` from :meth:`result` — so open-loop
        drivers can account every offered request.  Like answers, the
        rejection ledger is bounded by the retention capacity: ids of
        rejections older than the most recent ``retention`` are evicted and
        resolve to a plain ``KeyError``.
        """
        k = self.k if k is None else k
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        point = np.asarray(query, dtype=np.float64)
        query = point.ravel()
        if query.shape[0] != self._dims:
            raise ValueError(f"query has shape {point.shape}, fleet has {self._dims} dims")
        with self._lock:
            queue = self._queue
            request_id, arrival = queue.arrive(query, at, self._advance)
            verdict = self.admission.on_submit(len(queue.pending))
            if verdict == REJECT:
                self._note_rejected(request_id)
                self.events.emit(
                    "admission_reject", request_id=request_id, queue_depth=len(queue.pending)
                )
                return request_id
            if verdict == SHED:
                victim = queue.pending.pop(0)
                self._note_rejected(victim.request_id)
                self.events.emit(
                    "admission_shed",
                    request_id=victim.request_id,
                    shed_for=request_id,
                    queue_depth=len(queue.pending),
                )
            if queue.enqueue(request_id, arrival, k, query):
                # Quiet on a dead shard: the request was admitted and stays
                # queued (the failed dispatch requeued its batch and latched
                # the stall); the caller must still get the id so the answer
                # is reachable after a heal() + flush().
                self._dispatch_quietly(arrival)
            return request_id

    def query(
        self,
        query: np.ndarray,
        k: int | None = None,
        at: float | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Interactive single query: submit, flush, return ``(distances, ids)``.

        As explicit as :meth:`flush`, so a batch stalled on a dead shard is
        retried here too — the caller gets either the answer or the real
        :class:`~repro.fleet.replica.ShardUnavailableError`, never a
        misleading still-pending ``KeyError``.
        """
        with self._lock:
            request_id = self.submit(query, k=k, at=at)
            if not self._queue.answered(request_id) and request_id not in self._rejected:
                self._dispatch(self._queue.now, retry_stalled=True)
            return self.result(request_id)

    def result(self, request_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` of a completed request.

        Raises :class:`RequestRejectedError` for requests refused or shed
        by admission control, ``KeyError`` when still pending, or when its
        answer or rejection was evicted by the retention ring.
        """
        with self._lock:
            if request_id in self._rejected:
                raise RequestRejectedError(
                    f"request {request_id} was rejected by admission control"
                )
            return self._queue.result(request_id)

    def flush(self, at: float | None = None) -> int:
        """Dispatch everything queued; returns the number dispatched.

        An explicit flush also retries a batch stalled by a fully-dead
        shard (after a :meth:`heal`, say); automatic dispatching never
        does, so one poisoned batch cannot wedge unrelated traffic.
        """
        with self._lock:
            now = self._advance(at)
            return self._dispatch(now, retry_stalled=True)

    def drain(self, at: float | None = None) -> int:
        """Alias of :meth:`flush` for end-of-trace use."""
        return self.flush(at)

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def insert(
        self, points: np.ndarray, ids: np.ndarray | None = None, at: float | None = None
    ) -> np.ndarray:
        """Add points to the fleet's live set; returns their ids.

        Each point routes to one shard (by region, id hash, or round-robin
        — whatever the plan prescribes) and lands in that shard's service.
        Auto ids continue above the largest id ever indexed fleet-wide.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self._dims:
            raise ValueError(f"points have {points.shape[1]} dims, fleet has {self._dims}")
        if not np.isfinite(points).all():
            raise ValueError("points must have finite coordinates (found nan or inf)")
        if ids is not None:
            ids = checked_ids(ids)
            if ids.shape[0] != points.shape[0]:
                raise ValueError("ids length must match number of points")
        with self._lock:
            now = self._advance(at)
            # Quiet flush: a batch stalled on a dead shard must not block a
            # mutation whose own target shards are healthy (the stuck queries
            # answer against the then-current live set once retried).
            self._dispatch_quietly(now)
            if ids is None:
                ids = np.arange(
                    self._next_auto_id, self._next_auto_id + points.shape[0], dtype=np.int64
                )
            else:
                # The whole batch is validated before any shard is touched: a
                # bad id must not leave some groups mutated and others not.
                reject_negative_ids(ids)
                live = [int(i) for i in ids if int(i) in self._id_to_shard]
                if live:
                    raise ValueError(f"ids already indexed: {live[:5]}")
            shards = self.plan.assign(points, ids, self._n_assigned)
            # Atomicity: no group is touched unless every target shard can
            # accept the mutation (a fully-dead shard would otherwise leave the
            # batch half-applied).
            self._require_alive(np.unique(shards))
            for shard in np.unique(shards):
                rows = shards == shard
                self.groups[shard].insert(points[rows], ids[rows], at=now)
            # Counters move only after every shard accepted its slice, so a
            # failed batch cannot shift future round-robin assignment.
            self._n_assigned += points.shape[0]
            for i, s in zip(ids, shards):
                self._id_to_shard[int(i)] = int(s)
            if ids.size:
                self._next_auto_id = max(self._next_auto_id, int(ids.max()) + 1)
            return ids

    def delete(self, ids: np.ndarray | Sequence[int], at: float | None = None) -> None:
        """Remove points by id from whichever shards hold them."""
        id_list = checked_ids(ids).tolist()
        with self._lock:
            now = self._advance(at)
            self._dispatch_quietly(now)
            for point_id in id_list:
                if point_id not in self._id_to_shard:
                    raise KeyError(f"id {point_id} is not in the live set")
            by_shard: Dict[int, List[int]] = {}
            for point_id in id_list:
                by_shard.setdefault(self._id_to_shard[point_id], []).append(point_id)
            self._require_alive(np.fromiter(by_shard.keys(), dtype=np.int64, count=len(by_shard)))
            for shard, shard_ids in sorted(by_shard.items()):
                self.groups[shard].delete(np.array(shard_ids, dtype=np.int64), at=now)
            for point_id in id_list:
                del self._id_to_shard[point_id]

    def rebuild(self, shard: int | None = None, at: float | None = None) -> None:
        """Fold one/all shards' updates into their indices now: one fold per
        shard, served by every live replica of the shard."""
        with self._lock:
            targets = self.groups if shard is None else [self._group(shard)]
            now = self._advance(at)
            for group in targets:
                if group.n_alive:
                    group.rebuild(at=now)

    # ------------------------------------------------------------------
    # Failure injection / repair
    # ------------------------------------------------------------------
    def kill_replica(self, shard: int, replica: int) -> None:
        """Fail a replica immediately (chaos drill)."""
        with self._lock:
            self._replica(shard, replica).kill()
            self.groups[shard].note_death(replica_id=replica)

    def arm_replica_failure(self, shard: int, replica: int) -> None:
        """Make a replica die mid-query on its next pick (retry drill)."""
        with self._lock:
            self._replica(shard, replica).arm_failure()

    def heal(self, at: float | None = None) -> int:
        """Revive every dead replica that has a live peer; returns count.

        A fully-dead group is skipped, not fatal — it stays dark, and
        aborting on it would strand healable replicas in *other* groups.
        """
        with self._lock:
            self._advance(at)
            healed = 0
            for group in self.groups:
                if 0 < group.n_alive < group.n_replicas:
                    healed += group.heal()
            return healed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, at: float | None) -> float:
        # Deadline flushes go out quietly: a poisoned batch must not fail
        # the unrelated operation that merely advanced the clock (the stall
        # latch pauses further automatic dispatching; an explicit flush()
        # surfaces the error).
        return self._queue.advance(at, self._dispatch_quietly)

    def _dispatch_quietly(self, flush_time: float) -> int:
        """Automatic dispatch: a fully-dead shard stalls instead of raising."""
        try:
            return self._dispatch(flush_time)
        except ShardUnavailableError:
            return 0

    def _dispatch(self, flush_time: float, retry_stalled: bool = False) -> int:
        if self._stalled:
            if not retry_stalled:
                return 0
            self._stalled = False
        queue = self._queue
        batch = queue.pop_batch(flush_time)
        if not batch:
            return 0
        trace = self.tracer.start()
        started = self._clock.monotonic()
        if trace is not None:
            ledger = self.admission.stats.as_dict()
            trace.instant(
                "admission",
                "admission",
                batch=len(batch),
                queued=len(queue.pending),
                admitted=ledger.get("admitted", 0),
                rejected=ledger.get("rejected", 0),
                shed=ledger.get("shed", 0),
            )
        stats_before = dataclasses.replace(self.router.stats)
        load_before = {
            (g.shard_id, r.replica_id): r.queries_served
            for g in self.groups
            for r in g.replicas
        }

        def route(queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
            k_mark = trace.mark() if trace is not None else 0
            k_start = self._clock.monotonic()
            d, i = self.router.answer(queries, k, at=flush_time, trace=trace)
            if trace is not None:
                trace.fold(
                    k_mark,
                    f"router k={k}",
                    "router",
                    k_start,
                    self._clock.monotonic(),
                    k=k,
                    queries=len(queries),
                )
            return d, i

        try:
            answers = answer_by_k(batch, route)
        except ShardUnavailableError:
            # A shard went fully dark mid-dispatch: the batch stays queued
            # (in arrival order) so a heal() + flush() can still answer it,
            # instead of dropping every request into a resultless limbo.
            # The stall latch pauses automatic dispatching so the poisoned
            # batch cannot wedge every later operation, and router counters
            # and replica load roll back — the retry re-counts the batch,
            # and fan-out/least-loaded accounting must track completed
            # queries only.  (Deaths and retries are NOT rolled back: a
            # replica that died mid-attempt really died.)
            self.router.stats = stats_before
            for g in self.groups:
                for r in g.replicas:
                    r.queries_served = load_before[(g.shard_id, r.replica_id)]
            queue.pending[:0] = batch
            self._stalled = True
            self.tracer.finish(
                trace,
                "fleet.batch",
                started,
                self._clock.monotonic(),
                batch=len(batch),
                error="ShardUnavailableError",
            )
            raise
        ended = self._clock.monotonic()
        completion = queue.complete(batch, answers, flush_time, ended - started)
        self.tracer.finish(
            trace, "fleet.batch", started, ended, batch=len(batch), flush_time=flush_time
        )
        self._batch_hist.observe(float(len(batch)))
        for r in batch:
            self._latency_hist.observe(completion - r.arrival)
        # Re-evaluate the burn-rate windows while the batch's latency
        # observations are fresh — breaches fire at dispatch time, not at
        # the next scrape.
        self.slo.tick()
        return len(batch)

    def _group(self, shard: int) -> ReplicaGroup:
        """The group of ``shard``; ``ValueError`` naming the range otherwise."""
        if not 0 <= shard < len(self.groups):
            raise ValueError(f"shard must be in [0, {len(self.groups)}), got {shard}")
        return self.groups[shard]

    def _replica(self, shard: int, replica: int) -> Replica:
        """Replica ``replica`` of ``shard``, range-checked like :meth:`_group`."""
        group = self._group(shard)
        if not 0 <= replica < group.n_replicas:
            raise ValueError(f"replica must be in [0, {group.n_replicas}), got {replica}")
        return group.replicas[replica]

    def _require_alive(self, shards: np.ndarray) -> None:
        """Fail before mutating anything if a target shard is fully dead."""
        for shard in shards:
            if self.groups[shard].n_alive == 0:
                raise ShardUnavailableError(f"shard {int(shard)}: every replica is dead")

    def _note_rejected(self, request_id: int) -> None:
        self._rejected[request_id] = None
        if len(self._rejected) > self.records.capacity:
            self._rejected.popitem(last=False)
