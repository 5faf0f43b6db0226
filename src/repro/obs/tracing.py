"""Sampled per-query distributed tracing for the serving fleet.

One sampled micro-batch produces one span tree::

    fleet.batch
    ├── admission                     (instant: ledger + queue state)
    └── router k=5
        ├── owner_phase
        │   └── owner_call shard0
        │       └── replica_attempt r0
        └── scatter_phase
            ├── scatter_call shard1
            │   ├── replica_attempt r1        (died mid-query)
            │   └── replica_attempt r0        (retry on the peer)
            └── merge shard1

Spans ride through the dispatch plane on the batch's :class:`SpanSink`,
attached to :class:`~repro.fleet.dispatch.ShardCall` metadata: the call
runs synchronously in the thread driving the batch, records its replica
attempts into the sink, and is folded over them as one timed span.  The
sink has exactly one writer from start to finish.

Sampling is controlled by the ``REPRO_OBS`` environment variable
(default off): ``1`` traces every micro-batch, ``N`` every N-th.  The
whole plane costs nothing when disabled — :meth:`Tracer.start` returns
``None`` without taking a lock, and every instrumentation site checks
for ``None`` first.

Completed traces live in a bounded ring and export as JSON-lines
(:meth:`Tracer.export_jsonl`) or the Chrome trace-event format
(:meth:`Tracer.export_chrome`) — save the latter as ``.json`` and open
it directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.obs.clock import MONOTONIC, Clock

#: Environment variable controlling trace sampling ("" / "0" = off,
#: "1" = every micro-batch, integer N = every N-th micro-batch).
OBS_ENV = "REPRO_OBS"


def obs_sample_every(value: str | None = None) -> int:
    """Sampling period from a ``REPRO_OBS`` value (0 = tracing off)."""
    raw = os.environ.get(OBS_ENV, "") if value is None else value
    raw = raw.strip().lower()
    if raw in ("", "0", "off", "false", "no"):
        return 0
    if raw in ("1", "on", "true", "yes"):
        return 1
    try:
        period = int(raw)
    except ValueError:
        raise ValueError(
            f"{OBS_ENV} must be empty, a boolean, or a sampling period; got {raw!r}"
        ) from None
    if period < 0:
        raise ValueError(f"{OBS_ENV} must be >= 0, got {period}")
    return period


@dataclass
class Span:
    """One timed operation in a trace tree."""

    name: str
    cat: str
    start: float
    end: float
    meta: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant (depth-first, pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "meta": dict(self.meta),
            "children": [child.to_dict() for child in self.children],
        }


class SpanSink:
    """Single-writer span collector for one sampled micro-batch.

    Only the thread driving the batch ever touches a sink — every traced
    :class:`ShardCall` runs synchronously in it — which is why this class
    carries no ``GUARDED_BY``.
    """

    __slots__ = ("clock", "spans")

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else MONOTONIC
        self.spans: List[Span] = []

    def mark(self) -> int:
        """Position bookmark; spans added after it fold into one parent."""
        return len(self.spans)

    def add(self, span: Span) -> Span:
        self.spans.append(span)
        return span

    def fold(
        self, mark: int, name: str, cat: str, start: float, end: float, **meta
    ) -> Span:
        """Wrap every span added since ``mark`` as children of a new span."""
        children = list(self.spans[mark:])
        del self.spans[mark:]
        return self.add(Span(name, cat, start, end, dict(meta), children))

    def instant(self, name: str, cat: str, **meta) -> Span:
        """Zero-duration marker span stamped with the sink's clock."""
        now = self.clock.monotonic()
        return self.add(Span(name, cat, now, now, dict(meta)))


@dataclass(frozen=True)
class TraceRecord:
    """One completed, sampled micro-batch trace."""

    trace_id: int
    root: Span

    def to_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id, "root": self.root.to_dict()}


class Tracer:
    """Sampling controller plus bounded ring of completed traces."""

    GUARDED_BY = {
        "_finished": "_lock",
        "_n_batches": "_lock",
        "_n_sampled": "_lock",
    }

    def __init__(
        self,
        enabled: bool | None = None,
        sample_every: int | None = None,
        capacity: int = 64,
        clock: Clock | None = None,
    ) -> None:
        env_period = obs_sample_every()
        self.enabled = (env_period > 0) if enabled is None else bool(enabled)
        self.sample_every = (
            max(1, env_period) if sample_every is None else int(sample_every)
        )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock = clock if clock is not None else MONOTONIC
        self._lock = threading.Lock()
        self._finished: List[TraceRecord] = []
        self._n_batches = 0
        self._n_sampled = 0

    def start(self) -> SpanSink | None:
        """A sink for this micro-batch, or ``None`` when not sampled."""
        if not self.enabled:
            return None
        with self._lock:
            self._n_batches += 1
            sampled = (self._n_batches - 1) % self.sample_every == 0
            if sampled:
                self._n_sampled += 1
        return SpanSink(self.clock) if sampled else None

    def finish(
        self, sink: SpanSink | None, name: str, start: float, end: float, **meta
    ) -> TraceRecord | None:
        """Seal a sampled batch: wrap its spans in a root and ring it."""
        if sink is None:
            return None
        root = Span(name, "batch", start, end, dict(meta), list(sink.spans))
        with self._lock:
            record = TraceRecord(self._n_sampled, root)
            self._finished.append(record)
            if len(self._finished) > self.capacity:
                del self._finished[: len(self._finished) - self.capacity]
        return record

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "batches_seen": self._n_batches,
                "batches_sampled": self._n_sampled,
                "traces_held": len(self._finished),
            }

    def traces(self) -> List[TraceRecord]:
        """Completed traces oldest-first."""
        with self._lock:
            return list(self._finished)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON object per completed trace, one per line."""
        return "".join(
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
            for record in self.traces()
        )

    def export_chrome(self) -> Dict[str, object]:
        """Chrome trace-event JSON (open in Perfetto / chrome://tracing).

        Each trace becomes one ``pid``; span categories map to stable
        ``tid`` lanes so admission/router/shard/replica work stack into
        readable tracks.  All events are complete ("X") events with
        microsecond timestamps relative to the earliest span.
        """
        records = self.traces()
        events: List[Dict[str, object]] = []
        origin = min(
            (record.root.start for record in records), default=0.0
        )
        lanes: Dict[str, int] = {}
        for record in records:
            for span in record.root.walk():
                tid = lanes.setdefault(span.cat, len(lanes) + 1)
                events.append(
                    {
                        "name": span.name,
                        "cat": span.cat,
                        "ph": "X",
                        "ts": (span.start - origin) * 1e6,
                        "dur": max(span.duration, 0.0) * 1e6,
                        "pid": record.trace_id,
                        "tid": tid,
                        "args": {str(k): v for k, v in span.meta.items()},
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"producer": "repro.obs.tracing"},
        }

    def write_chrome(self, path) -> None:
        """Write :meth:`export_chrome` JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export_chrome(), fh, sort_keys=True)

    def write_jsonl(self, path) -> None:
        """Write :meth:`export_jsonl` lines to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_jsonl())
