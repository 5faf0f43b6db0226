"""Region-routed scatter-gather across the shard fleet.

The router answers a query batch in the two phases of the paper's
distributed query protocol, lifted from ranks to shards:

1. **Owner phase** — each query goes to the shard whose region contains it
   (one batched call per owner shard, served by the group's least-loaded
   replica).  The owner's k-th neighbour distance r' bounds where any
   better neighbour can hide.
2. **Scatter phase** — the query fans out *only* to shards whose region box
   intersects the r' ball (:meth:`ShardPlan.scatter_targets`, the exact
   box-distance pruning of the rank protocol, taken once over the whole
   batch), one batched call per touched shard.  Results fold in with one
   vectorised sorted merge per shard call
   (:func:`~repro.kdtree.heap.merge_topk_rows` without duplicate-id
   handling, which disjoint shards cannot need), in ascending shard order.

Every shard call is a :class:`~repro.fleet.dispatch.ShardCall` run
synchronously by the :class:`~repro.fleet.dispatch.SerialDispatcher`, so a
batch makes at most ``2 x n_shards`` calls and a failure surfaces at the
call that hit it, before any later call starts.

Because every shard answers its own live set exactly and any point not in
a visited shard lies beyond r' (which is itself >= the true k-th distance),
the merged answer equals a single unsharded service's answer — identical
distances.  Among exactly-tied neighbours each shard's tree keeps the one
met first in the query's own DFS scan order and the merge keeps the
owner's, then the lower shard's, so ids are a function of the index layout
alone: the same query gets the same bytes whatever batch it arrives in.

Plans without geometry (hash / round-robin) broadcast every query to every
shard: still exact, never pruned.  :class:`RouterStats` records the
measured fan-out and per-phase wall time so the benchmark can show the
pruning win on clustered data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path
from repro.fleet.dispatch import SerialDispatcher, ShardCall
from repro.fleet.planner import ShardPlan
from repro.fleet.replica import ReplicaGroup
from repro.kdtree.heap import merge_topk_rows
from repro.obs.clock import MONOTONIC, Clock
from repro.obs.tracing import Span, SpanSink


@dataclass
class RouterStats:
    """Fan-out and phase-timing accounting across every routed query."""

    queries: int = 0
    shard_visits: int = 0
    owner_only: int = 0
    broadcasts: int = 0
    #: Wall seconds spent in the owner phase.  Broadcasts have no owner
    #: phase.
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

    ``dispatcher`` runs every shard call; the fleet passes its own so the
    fleet-wide call counters cover the router's traffic.
    """

    def __init__(
        self,
        plan: ShardPlan,
        groups: Sequence[ReplicaGroup],
        dispatcher: SerialDispatcher | None = None,
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

    def _call(
        self,
        shard: int,
        queries: np.ndarray,
        k: int,
        at: float | None,
        trace: SpanSink | None,
        label: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One shard call on the dispatch plane; returns the group's answer.

        On a traced batch the call's span (and the replica attempts under
        it) lands in ``trace``.
        """
        return self.dispatcher.submit(
            ShardCall(
                shard,
                self.groups[shard].answer,
                (queries, k, at, trace),
                sink=trace,
                label=label,
            )
        )

    def _merge(
        self,
        shard: int,
        k: int,
        acc_d: np.ndarray,
        acc_i: np.ndarray,
        d: np.ndarray,
        i: np.ndarray,
        trace: SpanSink | None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one shard call's rows into their accumulator rows."""
        merge_t0 = self._clock.monotonic()
        out = merge_topk_rows(k, acc_d, acc_i, d, i)
        if trace is not None:
            trace.add(
                Span(
                    f"merge shard{shard}",
                    "merge",
                    merge_t0,
                    self._clock.monotonic(),
                    {"shard": shard, "rows": int(d.shape[0])},
                )
            )
        return out

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
        # Ascending shard order: the fold order fixes which exactly-tied
        # id survives.
        for shard in range(len(self.groups)):
            d, i = self._call(shard, queries, k, at, trace, f"shard_call shard{shard}")
            acc_d, acc_i = self._merge(shard, k, acc_d, acc_i, d, i, trace)
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

        # Phase 1: one batched call per shard that owns queries.
        mark = trace.mark() if trace is not None else 0
        started = self._clock.monotonic()
        for shard in np.unique(owners):
            rows = np.flatnonzero(owners == shard)
            d, i = self._call(
                int(shard), queries[rows], k, at, trace, f"owner_call shard{int(shard)}"
            )
            acc_d[rows] = d
            acc_i[rows] = i
        self.stats.shard_visits += n
        owner_ended = self._clock.monotonic()
        self.stats.owner_seconds += owner_ended - started
        if trace is not None:
            trace.fold(mark, "owner_phase", "phase", started, owner_ended, queries=int(n))

        # Phase 2: fan out only where the r' ball (owner's k-th distance;
        # infinite when the owner held fewer than k) crosses a region box.
        # One vectorised stable sort groups the flat (rows, shards)
        # intersection set by shard — no per-row Python loop — and the
        # calls run in ascending shard order, so each row's scatter set
        # folds in ascending shard order too.
        mark = trace.mark() if trace is not None else 0
        sub_rows, sub_shards = self.plan.scatter_targets(queries, acc_d[:, k - 1], owners)
        self.stats.shard_visits += int(sub_rows.size)
        self.stats.owner_only += int(n - np.unique(sub_rows).size)
        order = np.argsort(sub_shards, kind="stable")
        sorted_rows = sub_rows[order]
        shards, starts = np.unique(sub_shards[order], return_index=True)
        bounds = np.append(starts, sorted_rows.size)
        for j, shard in enumerate(shards):
            rows = sorted_rows[bounds[j]:bounds[j + 1]]
            d, i = self._call(
                int(shard), queries[rows], k, at, trace, f"scatter_call shard{int(shard)}"
            )
            acc_d[rows], acc_i[rows] = self._merge(
                int(shard), k, acc_d[rows], acc_i[rows], d, i, trace
            )
        scatter_ended = self._clock.monotonic()
        self.stats.scatter_seconds += scatter_ended - owner_ended
        if trace is not None:
            trace.fold(
                mark, "scatter_phase", "phase", owner_ended, scatter_ended, calls=int(shards.size)
            )
        return acc_d, acc_i
