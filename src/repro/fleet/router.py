"""Region-routed scatter-gather across the shard fleet.

The router answers a query batch in the two phases of the paper's
distributed query protocol, lifted from ranks to shards:

1. **Owner phase** — each query goes to the shard whose region contains it
   (one batched call per owner shard, served by the group's least-loaded
   replica).  The owner's k-th neighbour distance r' bounds where any
   better neighbour can hide.
2. **Scatter phase** — the query fans out *only* to shards whose region box
   intersects the r' ball (:meth:`ShardPlan.scatter_targets`, the exact
   box-distance pruning of the rank protocol), again batched per shard.
   Results fold in with one vectorised sorted merge per shard call
   (:func:`~repro.kdtree.heap.merge_topk_rows` without duplicate-id
   handling, which disjoint shards cannot need).

Every shard call is a :class:`~repro.fleet.dispatch.ShardCall` submitted
through a pluggable :class:`~repro.fleet.dispatch.Dispatcher`.  Under the
default :class:`~repro.fleet.dispatch.SerialDispatcher` calls execute at
submit time, in submission order — provably the historical call sequence.
Under a concurrent dispatcher all owner calls run at once and each owner's
scatter calls are submitted the moment that owner completes (no barrier on
the whole batch).  Answers cannot differ between the two: batch answers are
row-independent, each row's scatter results fold in ascending shard order
either way, and every merge into the accumulators happens in the
submitting thread — so the bytes are identical whichever dispatcher runs
the calls.

Because every shard answers its own live set exactly and any point not in
a visited shard lies beyond r' (which is itself >= the true k-th distance),
the merged answer equals a single unsharded service's answer — identical
distances, with only the identity of exactly-tied k-th neighbours
unspecified, as everywhere else in this codebase.

Plans without geometry (hash / round-robin) broadcast every query to every
shard: still exact, never pruned.  :class:`RouterStats` records the
measured fan-out and per-phase wall time so the benchmark can show the
pruning win on clustered data and the overlap win on slow shards.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path
from repro.fleet.dispatch import Dispatcher, SerialDispatcher, ShardCall
from repro.fleet.planner import ShardPlan
from repro.fleet.replica import ReplicaGroup
from repro.kdtree.heap import merge_topk_rows
from repro.obs.clock import MONOTONIC, Clock
from repro.obs.profiler import phase
from repro.obs.tracing import Span, SpanSink


@dataclass
class RouterStats:
    """Fan-out and phase-timing accounting across every routed query."""

    queries: int = 0
    shard_visits: int = 0
    owner_only: int = 0
    broadcasts: int = 0
    #: Wall seconds spent in the owner phase (submitting and harvesting
    #: owner calls).  Broadcasts have no owner phase.
    owner_seconds: float = 0.0
    #: Wall seconds spent in the scatter phase (and in broadcasts, which
    #: are all fan-out).
    scatter_seconds: float = 0.0

    @property
    def mean_fanout(self) -> float:
        """Mean shards visited per query (n_shards when never pruned)."""
        return self.shard_visits / self.queries if self.queries else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": float(self.queries),
            "shard_visits": float(self.shard_visits),
            "mean_fanout": self.mean_fanout,
            "owner_only": float(self.owner_only),
            "broadcasts": float(self.broadcasts),
            "owner_seconds": float(self.owner_seconds),
            "scatter_seconds": float(self.scatter_seconds),
        }


class Router:
    """Pruned scatter-gather over a fixed plan and its replica groups.

    ``dispatcher`` carries every shard call; the router does not own it
    (the fleet — or the caller — closes it).  ``None`` falls back to a
    private :class:`SerialDispatcher`, which is free to leave unclosed.
    """

    def __init__(
        self,
        plan: ShardPlan,
        groups: Sequence[ReplicaGroup],
        dispatcher: Dispatcher | None = None,
        clock: Clock | None = None,
    ) -> None:
        if len(groups) != plan.n_shards:
            raise ValueError(f"plan has {plan.n_shards} shards, got {len(groups)} groups")
        self.plan = plan
        self.groups = list(groups)
        self.dispatcher = dispatcher if dispatcher is not None else SerialDispatcher()
        self._clock = clock if clock is not None else MONOTONIC
        self.stats = RouterStats()

    def answer(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None = None,
        trace: SpanSink | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact fleet-wide ``(distances, ids)`` for a query batch.

        ``trace`` (a sampled batch's span sink) collects the phase spans,
        per-shard call spans and merge spans of this batch; ``None`` —
        the untraced common case — records nothing.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = queries.shape[0]
        if n == 0:
            return (
                np.full((0, k), np.inf, dtype=np.float64),
                np.full((0, k), -1, dtype=np.int64),
            )
        self.stats.queries += n
        if not self.plan.supports_pruning:
            return self._broadcast(queries, k, at, trace)
        return self._scatter_gather(queries, k, at, trace)

    def _submit(
        self,
        shard: int,
        queries: np.ndarray,
        k: int,
        at: float | None,
        trace: SpanSink | None = None,
        label: str = "",
    ):
        """One shard call on the dispatch plane: ``(future, call sink)``.

        The dispatcher rides along into :meth:`ReplicaGroup.answer` so the
        group can hedge its replica attempts on the replica lane.  When
        the batch is traced, the call gets a private sink the executing
        worker records into; the harvester folds it into ``trace`` after
        the future resolves.
        """
        sink = SpanSink(self._clock) if trace is not None else None
        fut = self.dispatcher.submit(
            ShardCall(
                shard,
                self.groups[shard].answer,
                (queries, k, at, self.dispatcher, sink),
                sink=sink,
                label=label or f"shard_call shard{shard}",
            )
        )
        return fut, sink

    @staticmethod
    def _settle(futures) -> None:
        """Cancel-and-drain outstanding shard calls before re-raising.

        Nothing may still be running when the error propagates: the fleet
        rolls back router stats and per-replica load on failure, and that
        rollback must not race live workers.
        """
        for fut in futures:
            fut.cancel()
        if futures:
            futures_wait(list(futures))

    # ------------------------------------------------------------------
    # Non-spatial fallback: everyone answers everything
    # ------------------------------------------------------------------
    @exactness_path
    def _broadcast(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
        trace: SpanSink | None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = queries.shape[0]
        self.stats.shard_visits += n * len(self.groups)
        self.stats.broadcasts += n
        acc_d = np.full((n, k), np.inf, dtype=np.float64)
        acc_i = np.full((n, k), -1, dtype=np.int64)
        mark = trace.mark() if trace is not None else 0
        started = self._clock.monotonic()
        calls: List[tuple] = []
        try:
            with phase("router.broadcast"):
                for shard in range(len(self.groups)):
                    calls.append(self._submit(shard, queries, k, at, trace))
                # Harvest in submission (= ascending shard) order: the fold
                # order fixes which exactly-tied id survives, so it must match
                # the serial sequence bit for bit.
                for pos, (fut, sink) in enumerate(calls):
                    d, i = fut.result()
                    calls[pos] = (None, sink)
                    if trace is not None:
                        trace.extend(sink.spans)
                    merge_t0 = self._clock.monotonic()
                    acc_d, acc_i = merge_topk_rows(k, acc_d, acc_i, d, i)
                    if trace is not None:
                        trace.add(
                            Span(
                                f"merge shard{pos}",
                                "merge",
                                merge_t0,
                                self._clock.monotonic(),
                                {"shard": pos, "rows": int(n)},
                            )
                        )
        except BaseException:
            self._settle([fut for fut, _ in calls if fut is not None])
            raise
        ended = self._clock.monotonic()
        self.stats.scatter_seconds += ended - started
        if trace is not None:
            trace.fold(
                mark,
                "broadcast_phase",
                "phase",
                started,
                ended,
                shards=len(self.groups),
                queries=int(n),
            )
        return acc_d, acc_i

    # ------------------------------------------------------------------
    # Region-routed two-phase protocol
    # ------------------------------------------------------------------
    @exactness_path
    def _scatter_gather(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
        trace: SpanSink | None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = queries.shape[0]
        owners = self.plan.owner_of(queries)
        acc_d = np.full((n, k), np.inf, dtype=np.float64)
        acc_i = np.full((n, k), -1, dtype=np.int64)

        # Phase 1: one batched owner call per shard that owns queries, all
        # submitted up front.  Each owner's scatter calls go out the moment
        # that owner completes — no barrier on the whole batch, so a slow
        # owner shard cannot hold back every other row's phase 2.
        owner_mark = trace.mark() if trace is not None else 0
        started = self._clock.monotonic()
        scatter_elapsed = 0.0
        # future -> (global rows, call sink)
        pending: Dict[object, Tuple[np.ndarray, object]] = {}
        # (shard, submit sequence, global rows, future, call sink):
        # harvested sorted by shard so each row's fold stays in ascending
        # shard order.
        scatter_calls: List[Tuple[int, int, np.ndarray, object, object]] = []
        seq = 0
        try:
            with phase("router.owner"):
                for shard in np.unique(owners):
                    rows = np.flatnonzero(owners == shard)
                    fut, sink = self._submit(
                        int(shard), queries[rows], k, at, trace,
                        label=f"owner_call shard{int(shard)}",
                    )
                    pending[fut] = (rows, sink)
                self.stats.shard_visits += n
                while pending:
                    done, _ = futures_wait(set(pending), return_when=FIRST_COMPLETED)
                    for fut in done:
                        rows, sink = pending.pop(fut)
                        d, i = fut.result()
                        if trace is not None:
                            trace.extend(sink.spans)
                        acc_d[rows] = d
                        acc_i[rows] = i
                        # Phase 2 for this owner's rows: fan out only where the
                        # r' ball (owner's k-th distance; infinite when the
                        # owner held fewer than k) crosses a region box.
                        t_scatter = self._clock.monotonic()
                        seq = self._submit_scatter(
                            queries, k, at, rows, owners[rows], acc_d[rows, k - 1],
                            scatter_calls, seq, trace,
                        )
                        scatter_elapsed += self._clock.monotonic() - t_scatter
            owner_ended = self._clock.monotonic()
            self.stats.owner_seconds += owner_ended - started - scatter_elapsed
            if trace is not None:
                trace.fold(
                    mark=owner_mark,
                    name="owner_phase",
                    cat="phase",
                    start=started,
                    end=owner_ended,
                    queries=int(n),
                )

            # Harvest scatter calls sorted by shard (submission order breaks
            # ties): a row's scatter set folds in ascending shard order —
            # the same per-row sequence as a whole-batch-per-shard sweep —
            # while calls targeting the same shard have disjoint rows.
            scatter_mark = trace.mark() if trace is not None else 0
            started = self._clock.monotonic()
            with phase("router.scatter"):
                scatter_calls.sort(key=lambda c: (c[0], c[1]))
                for pos, (_shard, _seq, rows, fut, sink) in enumerate(scatter_calls):
                    d, i = fut.result()
                    scatter_calls[pos] = (_shard, _seq, rows, None, sink)
                    if trace is not None:
                        trace.extend(sink.spans)
                    merge_t0 = self._clock.monotonic()
                    out_d, out_i = merge_topk_rows(k, acc_d[rows], acc_i[rows], d, i)
                    acc_d[rows] = out_d
                    acc_i[rows] = out_i
                    if trace is not None:
                        trace.add(
                            Span(
                                f"merge shard{_shard}",
                                "merge",
                                merge_t0,
                                self._clock.monotonic(),
                                {"shard": int(_shard), "rows": int(rows.size)},
                            )
                        )
            scatter_ended = self._clock.monotonic()
            if trace is not None:
                trace.fold(
                    mark=scatter_mark,
                    name="scatter_phase",
                    cat="phase",
                    start=started,
                    end=scatter_ended,
                    calls=len(scatter_calls),
                )
        except BaseException:
            self._settle(
                list(pending) + [c[3] for c in scatter_calls if c[3] is not None]
            )
            raise
        self.stats.scatter_seconds += scatter_elapsed + scatter_ended - started
        return acc_d, acc_i

    @exactness_path
    def _submit_scatter(
        self,
        queries: np.ndarray,
        k: int,
        at: float | None,
        rows: np.ndarray,
        sub_owners: np.ndarray,
        radii: np.ndarray,
        scatter_calls: List[Tuple[int, int, np.ndarray, object, object]],
        seq: int,
        trace: SpanSink | None = None,
    ) -> int:
        """Group one owner's rows by scatter shard and submit the calls.

        The grouping is one vectorised stable sort over the flat
        ``(rows, shards)`` intersection set — no per-row Python loop.
        """
        sub_rows, sub_shards = self.plan.scatter_targets(queries[rows], radii, sub_owners)
        self.stats.owner_only += int(rows.size - np.unique(sub_rows).size)
        if sub_rows.size == 0:
            return seq
        order = np.argsort(sub_shards, kind="stable")
        sorted_shards = sub_shards[order]
        sorted_rows = sub_rows[order]
        shards, starts = np.unique(sorted_shards, return_index=True)
        bounds = np.append(starts, sorted_rows.size)
        for j, shard in enumerate(shards):
            group_rows = rows[sorted_rows[starts[j]:bounds[j + 1]]]
            fut, sink = self._submit(
                int(shard), queries[group_rows], k, at, trace,
                label=f"scatter_call shard{int(shard)}",
            )
            scatter_calls.append((int(shard), seq, group_rows, fut, sink))
            seq += 1
            self.stats.shard_visits += int(group_rows.size)
        return seq
