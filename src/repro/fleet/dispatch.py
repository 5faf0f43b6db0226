"""Dispatch plane: the one place a shard call runs.

Every serving call of the fleet — owner-phase lookups and scatter-phase
fan-out — is a :class:`ShardCall` handed to
:meth:`SerialDispatcher.submit`, which runs it in the calling thread and
returns its result.  Submission order is execution order and an exception
propagates at the submit site: the bulk-synchronous call sequence of the
paper's five-step query, with nothing racing and nothing to harvest.

The dispatcher is what the call sites share: the per-call accounting
(:class:`DispatchStats`, which the fleet's stats and metrics read) and,
on a traced batch, the timed span each call wraps around whatever its
callee recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple


@dataclass
class ShardCall:
    """One unit of serving work bound for a shard.

    Attributes
    ----------
    shard:
        Shard id the call belongs to (span metadata and debugging).
    fn:
        The callable doing the work (``ReplicaGroup.answer``).
    args:
        Positional arguments for ``fn``.
    sink:
        Optional :class:`~repro.obs.tracing.SpanSink` of a traced batch.
        When set, the call is recorded as one timed span whose children
        are the spans ``fn`` added to the sink while it ran (replica
        attempts).  ``None`` (the default, and always the case when
        tracing is off) costs nothing.
    label / cat:
        Span name and category used when ``sink`` is set.
    """

    shard: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    sink: Any = None
    label: str = ""
    cat: str = "shard_call"


@dataclass
class DispatchStats:
    """Counters of one dispatcher instance.

    One ``submitted`` per shard call, owner and scatter alike; every
    submitted call ends up ``completed`` or ``failed``.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0

    def note_submit(self) -> None:
        self.submitted += 1

    def note_done(self, ok: bool) -> None:
        if ok:
            self.completed += 1
        else:
            self.failed += 1

    def as_dict(self) -> Dict[str, float]:
        return {
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "failed": float(self.failed),
        }


def _run_call(call: ShardCall) -> Any:
    """Execute a shard call, recording its span when a sink rides along.

    Spans the callee added to the sink while running (replica attempts
    under a shard call) fold in as children of this call's span.
    """
    sink = call.sink
    if sink is None:
        return call.fn(*call.args)
    clock = sink.clock
    mark = sink.mark()
    started = clock.monotonic()
    try:
        result = call.fn(*call.args)
    except BaseException as exc:
        sink.fold(
            mark,
            call.label or f"shard{call.shard}",
            call.cat,
            started,
            clock.monotonic(),
            shard=call.shard,
            ok=False,
            error=type(exc).__name__,
        )
        raise
    sink.fold(
        mark,
        call.label or f"shard{call.shard}",
        call.cat,
        started,
        clock.monotonic(),
        shard=call.shard,
        ok=True,
    )
    return result


class SerialDispatcher:
    """Run every call synchronously at submit time.

    ``submit`` returns the call's result and raises its exception
    directly, so a later call never starts before an earlier one
    finished or failed.
    """

    def __init__(self) -> None:
        self.stats = DispatchStats()

    def submit(self, call: ShardCall) -> Any:
        self.stats.note_submit()
        try:
            result = _run_call(call)
        except BaseException:
            self.stats.note_done(ok=False)
            raise
        self.stats.note_done(ok=True)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialDispatcher()"
