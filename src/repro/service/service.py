"""Online KNN serving: micro-batched queries over an immutable index.

:class:`KNNService` turns the batch-oriented PANDA index into an online
front end.  Single queries are coalesced into size-or-deadline
micro-batches on an event-driven logical clock; that queue model lives in
:mod:`repro.service.queue`, shared with the fleet's front door.  A cache
hit completes at its arrival without queueing.

Streaming updates (:meth:`KNNService.insert` / :meth:`KNNService.delete`)
are absorbed by a brute-force delta buffer and a tombstone set
(:mod:`repro.service.delta`): a read asks the tree for ``k``, goes back
only for the rows a dead id touched, and fuses one delta scan per batch; a
:class:`RebuildPolicy` folds both into a fresh index before either grows
enough to hurt.  The fold is the backend's: a local kd-tree re-packs its
points under its existing split planes, paying for what changed rather
than for a build over the whole live set.  Mutations invalidate the LRU
result cache *selectively*: only entries whose stored k-th-distance ball
can intersect the mutated points are dropped, so unrelated hot keys keep
hitting — and every surviving entry is still exact against the current
live set.

A rebuild is one fold in the foreground: the write (or the clock advance)
that trips the policy folds the buffer into a new backend, and the single
server is busy for the fold, so queries arriving meanwhile queue behind
it.  With a ``snapshot_root`` every rebuild is also persisted as a
versioned on-disk snapshot (``v0001``, ``v0002``, ...) whose ``CURRENT``
pointer is promoted as the new index goes live (:mod:`repro.core.snapshot`).
A fleet shard is one service, however many replicas serve it.

Micro-batches are answered synchronously in the calling thread.  A
service has one caller thread and takes no lock: inside a fleet, the
fleet's one lock serialises every call that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path
from repro.cluster.simulator import reject_negative_ids
from repro.core.snapshot import allocate_version_dir, promote_version
from repro.kdtree.heap import merge_topk_rows
from repro.kdtree.query import query_rows
from repro.obs.clock import MONOTONIC, Clock
from repro.service.cache import CacheStats, LRUCache, query_key
from repro.service.delta import DeltaBuffer, checked_ids, sorted_member
from repro.service.queue import MicroBatchPolicy, MicroBatchQueue, RecordRing, answer_by_k


@dataclass(frozen=True)
class RebuildPolicy:
    """When to fold the delta buffer and tombstones into a fresh index.

    A fold costs what it changes (``backend.fold``): the local kd-tree
    drops the tombstoned rows, routes the buffered points down its split
    planes and re-packs, rebuilding only a leaf the inserts overflowed.

    Attributes
    ----------
    max_inserts:
        Rebuild once this many inserted points are buffered (bounds the
        brute-force scan the delta buffer adds to every batch).
    max_tombstones:
        Rebuild once this many tree points are deleted.  A read fetches
        ``k`` and re-fetches only the rows a dead id touched, so this bounds
        the worst-case re-fetch width (``k + tombstones``, a whole deleted
        neighbourhood), not the width of every read; lower it when
        ``refetched_rows`` climbs.
    max_staleness_s:
        Rebuild once the oldest un-absorbed update is this old (logical
        service time), regardless of buffer sizes.
    """

    max_inserts: int = 4096
    max_tombstones: int = 256
    max_staleness_s: float = np.inf

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: a NaN fails every comparison,
        # and would otherwise silently disable its trigger.
        for name in ("max_inserts", "max_tombstones", "max_staleness_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


class KNNService:
    """Online KNN front end: micro-batching, result cache, streaming updates.

    Parameters
    ----------
    backend:
        A :class:`~repro.service.backends.LocalTreeBackend` (or anything
        with ``kneighbors`` / ``all_points`` / ``fold`` / ``fold_edits`` /
        ``n_points`` / ``dims``).
    k:
        Default neighbours per query.
    batch_policy, rebuild_policy:
        Micro-batching and rebuild parameters (sensible defaults).
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    retention:
        Completed requests retained for inspection: both the
        :class:`~repro.service.queue.RecordRing` of request records and the
        fetchable per-request answers are capped at this many recent
        requests (a long-lived service no longer grows without bound).
        Aggregate latency statistics stay exact across evictions; percentiles
        are over the retained window.
    service_time:
        Optional ``batch_size -> seconds`` model replacing the measured
        wall-clock batch cost — injected by tests that need a
        deterministic logical clock.  ``None`` (default) measures real
        compute time.
    snapshot_root:
        Directory receiving one versioned snapshot (``v0001``, ``v0002``,
        ...) per rebuild; the ``CURRENT`` pointer is promoted atomically
        once it is written.  ``None`` disables persistence.
    clock:
        Injectable monotonic clock (:class:`~repro.obs.clock.Clock`) all
        wall-time measurements read through — real ``perf_counter`` by
        default, a :class:`~repro.obs.clock.ManualClock` in deterministic
        tests.  Logical time (``at=`` arguments) is unaffected.
    events:
        Optional structured ops event sink (an
        :class:`~repro.obs.events.EventLog` or a ``.scoped(...)`` view of
        one).  When set, the service emits ``rebuild`` (with ``points``,
        the new ``version``, ``fold_s``, ``snapshot_s`` and the fold's
        ``grafted_leaves`` and ``collapsed_nodes``) / ``cache_full_clear``
        events; ``None`` (default) emits nothing.
    """

    def __init__(
        self,
        backend,
        k: int = 5,
        batch_policy: MicroBatchPolicy | None = None,
        rebuild_policy: RebuildPolicy | None = None,
        cache_capacity: int = 4096,
        retention: int = 65536,
        service_time: Callable[[int], float] | None = None,
        snapshot_root: str | Path | None = None,
        clock: Clock | None = None,
        events=None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if backend.dims <= 0:
            raise ValueError("backend must index at least 1-dimensional points")
        self.backend = backend
        self.k = k
        self.batch_policy = batch_policy or MicroBatchPolicy()
        self.rebuild_policy = rebuild_policy or RebuildPolicy()
        self.cache = LRUCache(cache_capacity)
        self.delta = DeltaBuffer(backend.dims)
        self.version = 0
        self.rebuilds = 0
        self.rebuild_seconds = 0.0
        self.refetched_rows = 0
        self.snapshot_root = Path(snapshot_root) if snapshot_root is not None else None
        self._service_time = service_time
        self._queue = MicroBatchQueue(self.batch_policy, retention, service_time)
        self._first_dirty_at: float | None = None
        self.records: RecordRing = self._queue.records
        self._clock = clock if clock is not None else MONOTONIC
        self.events = events
        self._reindex_ids()

    def close(self) -> None:
        """Nothing to release: a service holds no pooled resource.  Kept so
        a service closes like the fleet (idempotent, a context manager)."""

    def __enter__(self) -> "KNNService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current logical time (max event time seen so far)."""
        return self._queue.now

    @property
    def n_pending(self) -> int:
        """Requests queued but not yet dispatched."""
        return len(self._queue.pending)

    @property
    def n_live(self) -> int:
        """Points currently visible to queries (tree - tombstones + delta)."""
        return self.backend.n_points - self.delta.n_tombstones + self.delta.n_inserted

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss statistics of the result cache."""
        return self.cache.stats

    def obs_snapshot(self) -> Dict[str, float]:
        """One flat snapshot of every service-level stat, for the
        scrape-time collectors of :mod:`repro.obs.collectors`."""
        stats = self.cache.stats
        return {
            "pending": float(len(self._queue.pending)),
            "version": float(self.version),
            "rebuilds": float(self.rebuilds),
            "rebuild_seconds": float(self.rebuild_seconds),
            "n_live": float(self.n_live),
            "delta_inserts": float(self.delta.n_inserted),
            "tombstones": float(self.delta.n_tombstones),
            "refetched_rows": float(self.refetched_rows),
            "cache_hits": float(stats.hits),
            "cache_misses": float(stats.misses),
            "cache_evictions": float(stats.evictions),
            "cache_full_clears": float(stats.full_clears),
            "cache_keys_dropped": float(stats.keys_dropped),
            "cache_size": float(len(self.cache)),
        }

    def target_batch_size(self) -> int:
        """Current micro-batch target under the adaptive policy."""
        return self._queue.target_batch_size()

    def latency_summary(self) -> Dict[str, float]:
        """Summary statistics over every completed request.

        Counts, mean/max latency, QPS, cache hit rate and batch sizes are
        exact over the full history even after the retention ring evicted
        old records; p50/p99 are over the retained window.
        """
        return self.records.summary()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        at: float | None = None,
    ) -> int:
        """Enqueue one query; returns its request id.

        ``at`` is the arrival timestamp and must be non-decreasing across
        calls; omitting it models a closed-loop caller whose request
        arrives once the server finished its previous work.  The request
        completes immediately on a cache hit, otherwise when its
        micro-batch is dispatched (size trigger, deadline flush, or an
        explicit :meth:`flush` / :meth:`drain`).
        """
        k = self.k if k is None else k
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        point = np.asarray(query, dtype=np.float64)
        query = point.ravel()
        if query.shape[0] != self.backend.dims:
            raise ValueError(f"query has shape {point.shape}, index has {self.backend.dims} dims")
        queue = self._queue
        request_id, arrival = queue.arrive(query, at, self._advance)
        cached = self.cache.get(query_key(query, k))
        if cached is not None:
            d, i = cached
            queue.complete_hit(request_id, arrival, (d.copy(), i.copy()))
            return request_id
        if queue.enqueue(request_id, arrival, k, query):
            self._dispatch(arrival)
        return request_id

    def query(
        self,
        query: np.ndarray,
        k: int | None = None,
        at: float | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Interactive single query: submit, flush, return ``(distances, ids)``."""
        request_id = self.submit(query, k=k, at=at)
        if not self._queue.answered(request_id):
            self._dispatch(self._queue.now)
        return self._queue.result(request_id)

    def answer_batch(
        self,
        queries: np.ndarray,
        k: int | None = None,
        at: float | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Synchronous exact batch answers, outside the micro-batch queue.

        The scatter-gather router of the fleet layer calls this: no
        queueing, no result cache, no per-request latency accounting — just
        the exact live-set answer (tree, dead rows re-fetched, delta fused).
        Passing ``at`` advances the logical clock first, firing deadline
        flushes and a staleness rebuild that were due by then.
        """
        k = self.k if k is None else k
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = query_rows(queries)
        if not np.isfinite(queries).all():
            raise ValueError("queries must have finite coordinates (found nan or inf)")
        if queries.shape[1] != self.backend.dims:
            raise ValueError(
                f"queries have {queries.shape[1]} dims, index has {self.backend.dims}"
            )
        if at is not None:
            self._advance(at)
        return self._answer(queries, k)

    def result(self, request_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` of a completed request.

        Raises ``KeyError`` when the request is still pending or its answer
        was already evicted by the retention ring.
        """
        return self._queue.result(request_id)

    def flush(self, at: float | None = None) -> int:
        """Dispatch everything queued; returns the number dispatched."""
        now = self._advance(at)
        return self._dispatch(now)

    def drain(self, at: float | None = None) -> int:
        """Alias of :meth:`flush` for end-of-trace use."""
        return self.flush(at)

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, ids: np.ndarray | None = None, at: float | None = None) -> np.ndarray:
        """Add points to the live set; returns their ids.

        Queued queries are flushed first (they answer against the pre-update
        set), cached entries whose k-th-distance ball can contain one of
        the new points are dropped (the rest stay exact), and a rebuild
        runs if the delta buffer crossed its policy threshold.
        Auto-assigned ids continue above the largest id ever indexed.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not np.isfinite(points).all():
            # No query can reach such a point, and the next rebuild would
            # hand it to the tree builder.
            raise ValueError("points must have finite coordinates (found nan or inf)")
        if ids is not None:
            ids = checked_ids(ids)
        now = self._advance(at)
        self._dispatch(now)
        if ids is None:
            ids = np.arange(
                self._next_auto_id, self._next_auto_id + points.shape[0], dtype=np.int64
            )
        else:
            live_backend = ids[
                sorted_member(self._backend_ids, ids) & ~self.delta.dead_mask(ids)
            ]
            if live_backend.size:
                raise ValueError(f"ids already indexed: {live_backend[:5].tolist()}")
        self.delta.insert(points, ids)
        if ids.size:
            self._next_auto_id = max(self._next_auto_id, int(ids.max()) + 1)
        self._invalidate_for_insert(points)
        self._mark_dirty(now)
        self._maybe_rebuild(now)
        return ids

    def delete(self, ids: np.ndarray | Sequence[int], at: float | None = None) -> None:
        """Remove points by id (buffered inserts or tree-resident points).

        Tree-resident points become tombstones filtered out of every answer
        until a rebuild physically drops them; unknown ids raise
        ``KeyError``, malformed or repeated ones ``ValueError``.
        """
        dead_ids = checked_ids(ids)
        now = self._advance(at)
        self._dispatch(now)
        buffered = np.fromiter(
            map(self.delta.contains, dead_ids.tolist()), dtype=bool, count=dead_ids.size
        )
        live = buffered | (
            sorted_member(self._backend_ids, dead_ids) & ~self.delta.dead_mask(dead_ids)
        )
        # Validate the whole batch before mutating anything, so a bad id
        # cannot leave the delete half-applied with a stale cache.
        if not live.all():
            raise KeyError(f"id {int(dead_ids[~live][0])} is not in the live set")
        for point_id in dead_ids[buffered].tolist():
            self.delta.delete_buffered(point_id)
        self.delta.add_tombstones(dead_ids[~buffered])
        self._invalidate_for_delete(dead_ids)
        self._mark_dirty(now)
        self._maybe_rebuild(now)

    def rebuild(self, at: float | None = None) -> None:
        """Fold tombstones and the delta buffer into a fresh index.

        The single server is busy for the duration of the fold (and the
        snapshot, with a ``snapshot_root``), so queries arriving meanwhile
        queue behind it.
        """
        now = self._advance(at)
        self._dispatch(now)
        self._rebuild_now(now)

    def _emit(self, kind: str, **fields) -> None:
        """Emit a structured ops event; a no-op without an event sink."""
        if self.events is not None:
            self.events.emit(kind, **fields)

    def _clear_cache_fully(self) -> None:
        """Whole-cache invalidation (new index), with an ops event."""
        entries = len(self.cache)
        if entries:
            self._emit("cache_full_clear", entries=entries)
        self.cache.clear()

    def _rebuild_now(self, now: float) -> None:
        """Fold, snapshot and go live with the new index, in the foreground."""
        n_live = self.n_live
        if n_live == 0:
            raise RuntimeError("cannot rebuild over an empty live set")
        started = self._clock.monotonic()
        backend = self.backend.fold(self.delta.tombstone_array(), *self.delta.live_arrays())
        fold_s = self._clock.monotonic() - started
        snapshot_s = 0.0
        if self.snapshot_root is not None:
            started = self._clock.monotonic()
            version_dir = allocate_version_dir(self.snapshot_root)
            backend.save(version_dir / "index")
            promote_version(self.snapshot_root, version_dir)
            snapshot_s = self._clock.monotonic() - started
        elapsed = fold_s + snapshot_s
        if self._service_time is not None:
            elapsed = float(self._service_time(n_live))
        self.backend = backend
        self.rebuilds += 1
        self.rebuild_seconds += elapsed
        # The single server is busy rebuilding: queries arriving meanwhile
        # queue behind it.
        self._queue.occupy(now, elapsed)
        self.delta.clear()
        self._clear_cache_fully()
        self.version += 1
        self._first_dirty_at = None
        self._reindex_ids()
        grafted, collapsed = backend.fold_edits()
        self._emit(
            "rebuild",
            points=n_live,
            version=self.version,
            fold_s=fold_s,
            snapshot_s=snapshot_s,
            grafted_leaves=grafted,
            collapsed_nodes=collapsed,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, at: float | None) -> float:
        """:meth:`MicroBatchQueue.advance`, then the staleness rebuild due
        by the new time."""
        now = self._queue.advance(at, self._dispatch)
        if (
            self._first_dirty_at is not None
            and now - self._first_dirty_at >= self.rebuild_policy.max_staleness_s
            and self.n_live > 0
        ):
            self._dispatch(now)
            self._rebuild_now(now)
        return now

    @exactness_path
    def _dispatch(self, flush_time: float) -> int:
        """Dispatch every queued request that arrived by ``flush_time``."""
        queue = self._queue
        batch = queue.pop_batch(flush_time)
        if not batch:
            return 0
        started = self._clock.monotonic()
        answers = answer_by_k(batch, self._answer)
        queue.complete(batch, answers, flush_time, self._clock.monotonic() - started)
        for r in batch:
            d_row, i_row = answers[r.request_id]
            # The cache owns its copies: a caller mutating a returned answer
            # in place must not poison later hits (hits copy on read too).
            self.cache.put(query_key(r.query, r.k), (d_row.copy(), i_row.copy()))
        return len(batch)

    @exactness_path
    def _answer(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact live-set KNN over the tree, the tombstones and the buffer.

        The tree is asked for ``k``.  With no tombstone and no buffered
        insert that is the answer.  Otherwise only the rows whose answer
        holds a dead id go back to the tree (:meth:`_refetch_dead_rows`),
        and the buffer is scanned once for the batch and merged in, tree
        first on ties.
        """
        d, i = self.backend.kneighbors(queries, k)
        if self.delta.n_tombstones:
            d, i = self._refetch_dead_rows(queries, k, d, i)
        if self.delta.n_inserted:
            d, i = merge_topk_rows(k, d, i, *self.delta.query(queries, k))
        return d, i

    @exactness_path
    def _refetch_dead_rows(
        self, queries: np.ndarray, k: int, d: np.ndarray, i: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replace every row of a width-``k`` tree answer that holds a
        tombstoned id by its ``k`` nearest live tree points.

        A fetch of width ``w`` holding ``c`` dead ids holds the ``w - c``
        nearest live tree points in order, so a row is settled once
        ``w - c >= k``, or once it shows padding (the tree is exhausted).
        The unsettled rows go back as one sub-batch, ``c`` wider each time:
        ``c`` exceeds what the last width allowed for, so the allowance at
        least doubles per round, and the width stops at
        ``k + n_tombstones``, which settles every row.
        """
        dead = self.delta.dead_mask(i)
        rows = np.flatnonzero(dead.any(axis=1))
        if rows.size == 0:
            return d, i
        cap = k + self.delta.n_tombstones
        width, sub_d, sub_i, dead = k, d[rows], i[rows], dead[rows]
        while True:
            n_dead = dead.sum(axis=1)
            settled = (width - n_dead >= k) | (sub_i[:, -1] < 0) | (width == cap)
            # The one compaction rule, merging with an empty second block:
            # dead slots are dropped, live ones keep their order.
            none = np.empty((int(settled.sum()), 0))
            d[rows[settled]], i[rows[settled]] = merge_topk_rows(
                k, sub_d[settled], np.where(dead[settled], -1, sub_i[settled]), none, none
            )
            rows = rows[~settled]
            if rows.size == 0:
                return d, i
            width = min(width + int(n_dead[~settled].max()), cap)
            self.refetched_rows += int(rows.size)
            sub_d, sub_i = self.backend.kneighbors(queries[rows], width)
            dead = self.delta.dead_mask(sub_i)

    def _mark_dirty(self, now: float) -> None:
        if self._first_dirty_at is None:
            self._first_dirty_at = now

    def _invalidate_for_insert(self, points: np.ndarray) -> int:
        """Drop only cached entries an insert can change.

        A cached answer ``(d, i)`` for query q can change only if some new
        point lands inside (or exactly on) its k-th-distance ball — i.e.
        ``min_p |q - p| <= d[k-1]``.  Underfull entries (fewer than k live
        neighbours found) have an unbounded ball: ``d[k-1]`` is ``inf`` and
        the comparison drops them for any insert, as it must.
        """
        if len(self.cache) == 0 or points.shape[0] == 0:
            return 0
        items = self.cache.items()
        keys = [key for key, _ in items]
        queries = np.stack([np.frombuffer(key[1], dtype=np.float64) for key in keys])
        balls = np.array([value[0][-1] for _, value in items])
        # Chunk the inserted points to bound the (cached, chunk, dims)
        # difference tensor — a bulk insert against a warm cache would
        # otherwise materialise a multi-hundred-MB cube.
        dims = queries.shape[1]
        min_d2 = np.full(queries.shape[0], np.inf)
        chunk = max(1, int(5e6 // max(queries.shape[0] * max(dims, 1), 1)))
        for lo in range(0, points.shape[0], chunk):
            diff = queries[:, None, :] - points[None, lo : lo + chunk, :]
            d2 = np.einsum("qpd,qpd->qp", diff, diff).min(axis=1)
            np.minimum(min_d2, d2, out=min_d2)
        ball_sq = np.where(np.isfinite(balls), balls * balls, np.inf)
        hit = np.flatnonzero(min_d2 <= ball_sq)
        if hit.size:
            self.cache.drop([keys[j] for j in hit])
        return int(hit.size)

    def _invalidate_for_delete(self, dead_ids: np.ndarray) -> int:
        """Drop only cached entries a delete can change.

        A delete changes a cached answer only if it removes one of the
        answer's own ids: any live point strictly inside the k-th-distance
        ball is already listed, and an underfull answer lists *every* live
        in-range point — so id membership is a complete test.
        """
        if len(self.cache) == 0 or dead_ids.size == 0:
            return 0
        # A plain set test per entry beats one np.isin ufunc dispatch per
        # entry: delete batches are small and cached id rows are length k.
        dead = set(int(x) for x in dead_ids)
        doomed = [key for key, (_, i) in self.cache.items() if not dead.isdisjoint(i.tolist())]
        if doomed:
            self.cache.drop(doomed)
        return len(doomed)

    def _maybe_rebuild(self, now: float) -> None:
        policy = self.rebuild_policy
        if self.n_live == 0:
            # Nothing to build a tree over; stay on the buffered state until
            # an insert makes the live set non-empty again.
            return
        if (
            self.delta.n_inserted >= policy.max_inserts
            or self.delta.n_tombstones >= policy.max_tombstones
        ):
            self._rebuild_now(now)

    def _reindex_ids(self) -> None:
        """Index the backend's ids."""
        sorted_ids = np.sort(self.backend.all_points()[1])
        reject_negative_ids(sorted_ids[:1])
        # One ascending array: whole-batch searchsorted membership for
        # insert/delete, no Python object per indexed id.
        self._backend_ids = sorted_ids
        # Auto ids only ever move forward: an id freed by a delete + rebuild
        # must not be reassigned to a different point.
        floor = int(sorted_ids[-1]) + 1 if sorted_ids.size else 0
        self._next_auto_id = max(getattr(self, "_next_auto_id", 0), floor)
