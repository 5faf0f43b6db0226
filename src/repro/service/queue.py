"""Size-or-deadline micro-batching and its single-server queue model.

Both front doors, :class:`~repro.service.service.KNNService` and
:class:`~repro.fleet.fleet.KNNFleet`, answer single queries through this
one queue.  Single queries are not answered one at a time — the whole
point of the paper's vectorised traversal (and of the buffered kd-tree
baseline it compares against) is that coalescing queries amortises
traversal cost — so a door enqueues them and dispatches *micro-batches*
under a size-or-deadline policy:

* a batch is dispatched as soon as the queue reaches the policy's target
  size (adaptively sized from the observed arrival rate, so the target
  approximates "what arrives within one deadline window");
* a request is never held longer than ``max_delay_s`` — the deadline flush
  dispatches whatever is queued once the oldest request's deadline passes.

Time is event-driven: callers stamp each request with its arrival time
(open-loop traces do this from a generator; interactive callers may omit it)
and the queue advances a logical clock through a single-server queue
model — dispatch happens at ``max(flush time, server free)``, completion at
dispatch plus the *measured* wall-clock cost of the batch computation (or
an injected ``service_time`` model's).  Per-request latency is completion
minus arrival, so queueing, batching delay and compute all show up in the
reported percentiles.  What a door does with a batch (search, route,
cache, trace) stays in the door.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import exactness_path

#: Smoothing factor of the inter-arrival EWMA behind the adaptive target.
EWMA_ALPHA = 0.2

Answer = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MicroBatchPolicy:
    """Size-or-deadline micro-batching parameters.

    The target batch size tracks ``arrival_rate x max_delay_s`` clipped to
    ``[min_batch, max_batch]``: at low rates requests go out near-immediately
    in small batches, under load the batches grow toward the cap.
    ``min_batch == max_batch`` fixes the target.

    Attributes
    ----------
    max_batch:
        Hard cap on queries per dispatched batch, and the target until a
        second arrival gives the first inter-arrival gap.
    min_batch:
        Lower bound of the target.
    max_delay_s:
        Maximum time a request may wait in the queue before a deadline
        flush dispatches it.
    """

    max_batch: int = 256
    min_batch: int = 1
    max_delay_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if not 0 < self.min_batch <= self.max_batch:
            raise ValueError(
                f"min_batch must be in [1, max_batch], got {self.min_batch} vs {self.max_batch}"
            )
        if not self.max_delay_s >= 0:  # NaN fails this too
            raise ValueError(f"max_delay_s must be non-negative, got {self.max_delay_s}")


@dataclass
class RequestRecord:
    """Per-request latency accounting."""

    request_id: int
    arrival: float
    dispatch: float
    completion: float
    cache_hit: bool
    batch_size: int

    @property
    def latency(self) -> float:
        """End-to-end latency: completion minus arrival."""
        return self.completion - self.arrival


class RecordRing(Sequence):
    """Bounded request-record log: a ring buffer with exact running totals.

    Keeps at most ``capacity`` recent :class:`RequestRecord` entries for
    inspection and windowed percentiles, while the aggregate statistics
    (count, mean/max latency, span, cache hits, batch sizes) are accumulated
    over *every* record ever appended — so :meth:`summary` reports exact
    aggregates no matter how small the window is.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"retention capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: Deque[RequestRecord] = deque(maxlen=capacity)
        self._n = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._first_arrival = np.inf
        self._last_completion = -np.inf
        self._cache_hits = 0
        self._batch_sum = 0
        self._n_batched = 0

    # -- sequence protocol (slices included, so existing callers keep working)
    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Slicing is a rare introspection path; appends stay O(1).
            return list(self._items)[index]
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    @property
    def n_total(self) -> int:
        """Records ever appended (evicted ones included)."""
        return self._n

    @property
    def n_evicted(self) -> int:
        """Records dropped from the window so far."""
        return self._n - len(self._items)

    def append(self, record: RequestRecord) -> None:
        """Add a record, updating exact aggregates and trimming the window."""
        # Plain comparisons, not max()/min(): every cache hit passes here.
        latency = record.completion - record.arrival
        self._n += 1
        self._latency_sum += latency
        if latency > self._latency_max:
            self._latency_max = latency
        if record.arrival < self._first_arrival:
            self._first_arrival = record.arrival
        if record.completion > self._last_completion:
            self._last_completion = record.completion
        if record.cache_hit:
            self._cache_hits += 1
        else:
            self._batch_sum += record.batch_size
            self._n_batched += 1
        self._items.append(record)  # deque maxlen evicts the oldest in O(1)

    def summary(self) -> Dict[str, float]:
        """p50/p99 latency, QPS and batching statistics of the log.

        Counts, mean/max latency, QPS, cache hit rate and mean batch size
        are exact over the full history; the p50/p99 percentiles are
        computed over the retained window (they are order statistics, so a
        bounded log cannot reproduce them exactly once records are
        evicted).  An empty log reports zeros.
        """
        if self._n == 0:
            return dict.fromkeys(
                ("n_requests", "p50_latency_s", "p99_latency_s", "mean_latency_s",
                 "max_latency_s", "qps", "cache_hit_rate", "mean_batch_size"),
                0.0,
            )
        latencies = np.array([r.latency for r in self._items])
        span = float(self._last_completion - self._first_arrival)
        return {
            "n_requests": float(self._n),
            "p50_latency_s": float(np.percentile(latencies, 50)),
            "p99_latency_s": float(np.percentile(latencies, 99)),
            "mean_latency_s": self._latency_sum / self._n,
            "max_latency_s": self._latency_max,
            "qps": float(self._n / span) if span > 0 else float("inf"),
            "cache_hit_rate": self._cache_hits / self._n,
            "mean_batch_size": self._batch_sum / self._n_batched if self._n_batched else 0.0,
        }


@dataclass
class PendingRequest:
    """A queued request: what its dispatch needs to answer and account it."""

    request_id: int
    arrival: float
    k: int
    query: np.ndarray


@exactness_path
def answer_by_k(
    batch: Sequence[PendingRequest], search: Callable[[np.ndarray, int], Answer]
) -> Dict[int, Answer]:
    """Answer a batch with one ``search(queries, k)`` call per distinct
    ``k``, in ascending ``k``; returns ``{request_id: (distances, ids)}``."""
    answers: Dict[int, Answer] = {}
    for k in sorted({r.k for r in batch}):
        group = [r for r in batch if r.k == k]
        d, i = search(np.stack([r.query for r in group]), k)
        for row, r in enumerate(group):
            answers[r.request_id] = (d[row], i[row])
    return answers


class MicroBatchQueue:
    """One front door's logical clock, pending FIFO, single server and
    retained results.

    A door calls :meth:`arrive` then :meth:`enqueue` per query, and
    :meth:`pop_batch` then :meth:`complete` per dispatched batch; every
    other event moves the clock through :meth:`advance`.  ``retention``
    bounds both the :class:`RecordRing` and the fetchable answers;
    ``service_time`` (``batch_size -> seconds``) replaces the measured
    batch cost for a deterministic clock.  No lock: a service has one
    caller thread, and a fleet runs every call under its own lock.
    """

    def __init__(
        self,
        policy: MicroBatchPolicy,
        retention: int,
        service_time: Callable[[int], float] | None = None,
    ) -> None:
        self.policy = policy
        self.records = RecordRing(retention)
        #: Queued requests, oldest first.
        self.pending: List[PendingRequest] = []
        #: Logical time: the latest event time seen.
        self.now = 0.0
        self._service_time = service_time
        self._server_free_at = 0.0
        self._results: OrderedDict[int, Answer] = OrderedDict()
        self._next_request_id = 0
        self._last_arrival: float | None = None
        self._ewma_gap: float | None = None

    def target_batch_size(self) -> int:
        """``max_delay_s`` / mean inter-arrival gap, in ``[min_batch, max_batch]``."""
        policy = self.policy
        gap = self._ewma_gap
        if gap is None:
            return policy.max_batch
        return max(policy.min_batch, min(int(policy.max_delay_s / gap), policy.max_batch))

    def advance(self, at: float | None, dispatch: Callable[[float], int]) -> float:
        """Move the clock to ``at`` and return it, first flushing every
        deadline due on the way through the door's ``dispatch(flush_time)``
        (one returning 0, a stalled fleet, stops the flushing).

        ``at=None`` models a closed-loop caller: the event happens once the
        server finished its previous work.
        """
        now = max(self.now, self._server_free_at) if at is None else float(at)
        if now < self.now:
            raise ValueError(f"time went backwards: {now} < {self.now}")
        max_delay = self.policy.max_delay_s
        while self.pending:
            deadline = self.pending[0].arrival + max_delay
            if deadline > now or not dispatch(deadline):
                break
        self.now = now
        return now

    def arrive(
        self, query: np.ndarray, at: float | None, advance: Callable[[float | None], float]
    ) -> Tuple[int, float]:
        """One query arrives at ``at``, through the door's ``advance``;
        returns ``(request_id, arrival)``.

        A ``nan`` or ``inf`` coordinate, which no search can rank, raises
        ``ValueError`` before the clock, the ids or the arrival rate move.
        """
        # Per row this is ~4x cheaper than np.isfinite(query).all().
        if not all(map(math.isfinite, query.tolist())):
            raise ValueError("query must have finite coordinates (found nan or inf)")
        arrival = advance(at)
        last = self._last_arrival
        if last is not None:
            gap = arrival - last
            if gap < 1e-9:
                gap = 1e-9
            ewma = self._ewma_gap
            self._ewma_gap = gap if ewma is None else (1 - EWMA_ALPHA) * ewma + EWMA_ALPHA * gap
        self._last_arrival = arrival
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        return request_id, arrival

    def enqueue(self, request_id: int, arrival: float, k: int, query: np.ndarray) -> bool:
        """Queue a request; True once the queue holds a target-size batch."""
        self.pending.append(PendingRequest(request_id, arrival, k, query))
        return len(self.pending) >= self.target_batch_size()

    def pop_batch(self, flush_time: float) -> List[PendingRequest]:
        """Remove and return the FIFO prefix that arrived by ``flush_time``."""
        pending = self.pending
        split = 0
        while split < len(pending) and pending[split].arrival <= flush_time:
            split += 1
        batch = pending[:split]
        self.pending = pending[split:]
        return batch

    def complete(
        self, batch: Sequence[PendingRequest], answers: Dict[int, Answer],
        flush_time: float, measured: float,
    ) -> float:
        """Account a dispatched batch and return its completion: it starts
        at ``max(flush_time, server free)`` and holds the server for
        ``measured`` seconds, or ``service_time(len(batch))``."""
        n = len(batch)
        elapsed = measured if self._service_time is None else float(self._service_time(n))
        dispatch = max(flush_time, self._server_free_at)
        completion = dispatch + elapsed
        self._server_free_at = completion
        if flush_time > self.now:
            self.now = flush_time
        for r in batch:
            self._store(r.request_id, answers[r.request_id])
            self.records.append(
                RequestRecord(r.request_id, r.arrival, dispatch, completion, False, n)
            )
        return completion

    def complete_hit(self, request_id: int, arrival: float, answer: Answer) -> None:
        """Account a request answered at its arrival, without queueing."""
        self._store(request_id, answer)
        self.records.append(RequestRecord(request_id, arrival, arrival, arrival, True, 0))

    def occupy(self, now: float, seconds: float) -> None:
        """Hold the server for ``seconds`` from ``now`` or from when it frees up."""
        self._server_free_at = max(self._server_free_at, now) + seconds

    def answered(self, request_id: int) -> bool:
        """Whether the request's answer is held."""
        return request_id in self._results

    def result(self, request_id: int) -> Answer:
        """``(distances, ids)`` of a completed request (``KeyError`` if not held)."""
        if request_id not in self._results:
            raise KeyError(
                f"request {request_id} has no result (still pending, or evicted "
                f"by the retention ring of {self.records.capacity})"
            )
        return self._results[request_id]

    def _store(self, request_id: int, answer: Answer) -> None:
        self._results[request_id] = answer
        if len(self._results) > self.records.capacity:
            self._results.popitem(last=False)
