"""Ring-buffered structured ops event log.

Captures the operationally interesting moments of the serving fleet —
replica death/heal, rebuild, admission reject/shed, cache
full-clear — as typed records in a bounded ring, cheap
enough to leave on in production.

The log is a leaf lock: :meth:`EventLog.emit` acquires only its own lock
and never calls out, so emitting from under the fleet's lock cannot
create a lock-order cycle.  Per-kind lifetime counters survive ring eviction, so
``counts()`` reflects everything that ever happened, not just what the
ring still holds.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs.clock import MONOTONIC, Clock


@dataclass(frozen=True)
class Event:
    """One structured log record."""

    seq: int
    at: float
    kind: str
    fields: Tuple[Tuple[str, object], ...]

    def to_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "at": self.at, "kind": self.kind, **dict(self.fields)}


class EventLog:
    """Bounded, thread-safe, structured event ring."""

    GUARDED_BY = {
        "_ring": "_lock",
        "_next_seq": "_lock",
        "_kind_counts": "_lock",
    }

    def __init__(self, capacity: int = 1024, clock: Clock | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock = clock if clock is not None else MONOTONIC
        self._lock = threading.Lock()
        self._ring: List[Event] = []
        self._next_seq = 0
        self._kind_counts: Dict[str, int] = {}

    def emit(self, kind: str, at: float | None = None, **fields) -> Event:
        """Append one event; ``at`` defaults to the log's clock reading."""
        stamp = self.clock.monotonic() if at is None else float(at)
        with self._lock:
            event = Event(self._next_seq, stamp, kind, tuple(sorted(fields.items())))
            self._next_seq += 1
            self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
            self._ring.append(event)
            if len(self._ring) > self.capacity:
                del self._ring[: len(self._ring) - self.capacity]
        return event

    def scoped(self, **static_fields) -> "ScopedEvents":
        """An emitter that stamps ``static_fields`` onto every event."""
        return ScopedEvents(self, static_fields)

    def snapshot(self, kind: str | None = None) -> List[Event]:
        """Ring contents oldest-first, optionally filtered by kind."""
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def counts(self) -> Dict[str, int]:
        """Lifetime per-kind counts (unaffected by ring eviction)."""
        with self._lock:
            return dict(self._kind_counts)

    def total(self) -> int:
        """Lifetime event count."""
        with self._lock:
            return self._next_seq

    def to_jsonl(self) -> str:
        """Ring contents as JSON-lines, one event per line."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in self.snapshot()
        )


class ScopedEvents:
    """An :class:`EventLog` facade with pre-bound static fields.

    Handed to each serving component (e.g. ``shard=2, replica=0``) so
    emit sites stay one-liners; explicit fields win over static ones.
    """

    __slots__ = ("log", "static_fields")

    def __init__(self, log: EventLog, static_fields: Dict[str, object]) -> None:
        self.log = log
        self.static_fields = dict(static_fields)

    def emit(self, kind: str, at: float | None = None, **fields) -> Event:
        return self.log.emit(kind, at=at, **{**self.static_fields, **fields})

    def scoped(self, **static_fields) -> "ScopedEvents":
        return ScopedEvents(self.log, {**self.static_fields, **static_fields})
