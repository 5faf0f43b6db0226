"""Virtual-time open-loop driver and the statistics the benchmark reports.

The serving stack is single-threaded and synchronous, and its batching reacts
only to the ``at=`` timestamps it is handed.  Pacing in real time therefore
adds nothing but sleep jitter and a cold core, so the driver issues the calls
back to back, times each one, and keeps its own single-server clock: a call
due at ``due`` starts at ``max(due, free)`` and ends ``duration`` later, and
every request it resolved completes then.  Latency is counted from the due
time, so a stall is charged to every request queued behind it.  This stops
being valid the day a front door answers concurrently with its caller.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class PhaseResult:
    """What one open-loop phase measured (all times in seconds)."""

    due: np.ndarray
    #: Completion minus due time per op; NaN for a request never resolved.
    latency: np.ndarray
    #: How long after its due time each call started (generator lateness).
    late: np.ndarray
    #: Duration of every call, the closing ``drain`` last.
    durations: np.ndarray
    #: Number of requests each call resolved (the batches, as dispatched).
    resolved: np.ndarray
    #: Virtual time at which the door was free again.
    end: float

    @property
    def busy(self) -> float:
        return float(self.durations.sum())

    @property
    def unresolved(self) -> int:
        return int(np.count_nonzero(np.isnan(self.latency)))


ANSWERED, PENDING, REFUSED = range(3)


def _state(door, request_id) -> int:
    """Whether the door answered, still holds, or refused a request: an
    unanswered one raises ``KeyError``, a refused one a subclass of it."""
    try:
        door.result(request_id)
    except KeyError as error:
        return PENDING if type(error) is KeyError else REFUSED
    return ANSWERED


def open_loop(door, ops, due, free: float, clock=time.perf_counter) -> PhaseResult:
    """Drive ``ops`` through ``door`` on the virtual timeline starting at ``free``.

    An op is a query row (``door.submit(row, at=due)``, resolved later by the
    door's own batching) or a tuple ``(method, *args)`` for a synchronous call
    such as ``("insert", points, ids)``.  Which requests a call resolved is
    read off ``door.n_pending``: batches are FIFO prefixes of the queue,
    except that the newest request may be answered out of turn (a cache hit)
    or refused (it stays unresolved), which ``door.result`` tells apart.
    """
    n = len(ops)
    completion = np.full(n, np.nan)
    late = np.empty(n)
    durations = np.empty(n + 1)
    resolved = np.zeros(n + 1, dtype=np.int64)
    outstanding: deque = deque()  # (op index, request id), oldest first

    def settle(call: int, submitted: bool) -> None:
        pending = door.n_pending
        done = len(outstanding) - pending
        if done <= 0:
            return
        if submitted:
            state = _state(door, outstanding[-1][1])
            if state == REFUSED:
                outstanding.pop()
                done -= 1
            elif state == ANSWERED and pending:
                completion[outstanding.pop()[0]] = free
                resolved[call] = 1
                done -= 1
        resolved[call] += done
        for _ in range(done):
            completion[outstanding.popleft()[0]] = free

    for i in range(n):
        op = ops[i]
        at = float(due[i])
        if type(op) is tuple:
            method = getattr(door, op[0])
            t0 = clock()
            method(*op[1:], at=at)
            duration = clock() - t0
        else:
            t0 = clock()
            request_id = door.submit(op, at=at)
            duration = clock() - t0
            outstanding.append((i, request_id))
        start = max(at, free)
        free = start + duration
        late[i] = start - at
        durations[i] = duration
        if type(op) is tuple:
            completion[i] = free
        settle(i, type(op) is not tuple)

    # The door is only ever told due times, so what it does (and every count
    # read off it) depends on the schedule alone, never on how fast it ran.
    last_due = float(due[-1])
    t0 = clock()
    door.drain(at=last_due)
    durations[n] = clock() - t0
    free = max(free, last_due) + durations[n]
    settle(n, False)
    due = np.asarray(due, dtype=np.float64)
    return PhaseResult(due, completion - due, late, durations, resolved, free)


def tail(values: np.ndarray, percentile: float = 99.0) -> tuple:
    """``(value, percentile used)``: the asked percentile, or the highest one
    that still has ten samples beyond it when the sample is too small."""
    values = values[~np.isnan(values)]
    n = values.size
    if n == 0:
        return float("nan"), percentile
    used = min(percentile, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 100.0
    return float(np.percentile(values, used)), used


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values[~np.isnan(values)])) if values.size else float("nan")


def fastest(values) -> float:
    """The reading of the least disturbed repeat.

    Repeats of one workload do the same kind and amount of work, and whatever
    else runs on the box can only add to a repeat's time, never take away
    from it.  The box this was written on slows by a fifth for seconds to
    minutes at a time: over ten seeds the median over seven repeats ranged
    24-30% where the fastest repeat ranged 6-8%.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(np.nanmin(values)) if values.size else float("nan")
