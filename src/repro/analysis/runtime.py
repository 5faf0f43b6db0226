"""Runtime lock-discipline detector: instrumented locks + a write canary.

Opt-in via ``REPRO_ANALYSIS=1``.  The serving stack creates every lock
through :func:`new_lock` / :func:`new_rlock`; with the flag off these
return plain :mod:`threading` primitives (zero overhead), with it on they
return :class:`InstrumentedLock` drop-ins that report to a process-wide
:class:`LockMonitor`:

* **Acquisition-order edges** — whenever a thread acquires lock B while
  holding lock A, the edge ``A -> B`` is recorded (keyed by the lock's
  declared name, e.g. ``"ReplicaGroup._serve_lock"``, so all instances of
  one class share a node — the same granularity as the static lock-order
  graph).  A cycle among the recorded edges is a potential deadlock that
  actually happened to interleave during the run.
* **Unguarded cross-thread writes** — classes decorated with
  :func:`guarded` (reusing their ``GUARDED_BY`` declaration) get a
  ``__setattr__`` canary: a write to a guarded field from a thread that is
  neither the object's constructing thread nor a holder of the declared
  lock is recorded as a violation.

The existing fleet/service test suite doubles as the workload: CI runs it
with ``REPRO_ANALYSIS=1`` and a session-scoped fixture asserts the monitor
saw no cycles and no violations.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Set, Tuple

#: Environment variable enabling the runtime detector.
ANALYSIS_ENV = "REPRO_ANALYSIS"


def enabled() -> bool:
    """True when the runtime lock-discipline detector is switched on."""
    return os.environ.get(ANALYSIS_ENV, "") == "1"


class LockMonitor:
    """Process-wide registry of acquisition-order edges and canary hits."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (held name, acquired name) -> occurrence count.
        self.edges: Dict[Tuple[str, str], int] = {}
        #: (class name, field name, detail) of unguarded cross-thread writes.
        self.violations: List[Tuple[str, str, str]] = []
        self._held = threading.local()

    # -- per-thread held stack ------------------------------------------
    def _stack(self) -> List["InstrumentedLock"]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquire(self, lock: "InstrumentedLock") -> None:
        stack = self._stack()
        with self._lock:
            for held in stack:
                if held is lock:
                    # Re-entrant re-acquire of the same object: not an
                    # ordering edge (RLock legality is the static rule's
                    # concern; a plain Lock would have deadlocked already).
                    continue
                if held.name == lock.name and held is not lock:
                    # Two *instances* sharing one name nested: a real
                    # same-class ordering hazard, kept as a self-edge so
                    # cycle detection reports it.
                    self.edges[(held.name, lock.name)] = (
                        self.edges.get((held.name, lock.name), 0) + 1
                    )
                    continue
                if held.name != lock.name:
                    self.edges[(held.name, lock.name)] = (
                        self.edges.get((held.name, lock.name), 0) + 1
                    )
        stack.append(lock)

    def note_release(self, lock: "InstrumentedLock") -> None:
        stack = self._stack()
        # Release the most recent matching acquisition (locks may be
        # released out of LIFO order; identity search stays correct).
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is lock:
                del stack[i]
                return

    def holds(self, lock: "InstrumentedLock") -> bool:
        return any(held is lock for held in self._stack())

    def note_violation(self, cls_name: str, field: str, detail: str) -> None:
        with self._lock:
            self.violations.append((cls_name, field, detail))

    # -- reporting ------------------------------------------------------
    def cycles(self) -> List[List[str]]:
        """Cycles in the recorded acquisition-order graph (potential
        deadlocks), as lists of lock names."""
        with self._lock:
            graph: Dict[str, Set[str]] = {}
            for a, b in self.edges:
                graph.setdefault(a, set()).add(b)
                graph.setdefault(b, set())
        found: List[List[str]] = []
        color: Dict[str, int] = {}  # 0 unseen / 1 on stack / 2 done
        path: List[str] = []

        def visit(node: str) -> None:
            color[node] = 1
            path.append(node)
            for nxt in sorted(graph[node]):
                state = color.get(nxt, 0)
                if state == 0:
                    visit(nxt)
                elif state == 1:
                    found.append(path[path.index(nxt):] + [nxt])
            path.pop()
            color[node] = 2

        for node in sorted(graph):
            if color.get(node, 0) == 0:
                visit(node)
        return found

    def report(self) -> Dict[str, object]:
        with self._lock:
            edges = {f"{a} -> {b}": n for (a, b), n in sorted(self.edges.items())}
            violations = list(self.violations)
        return {"edges": edges, "cycles": self.cycles(), "violations": violations}

    def reset(self) -> None:
        with self._lock:
            self.edges.clear()
            self.violations.clear()


_MONITOR = LockMonitor()


def monitor() -> LockMonitor:
    """The process-wide :class:`LockMonitor` singleton."""
    return _MONITOR


class InstrumentedLock:
    """Drop-in ``threading.Lock`` / ``RLock`` reporting to the monitor.

    ``name`` is the class-level identity used for ordering edges (all
    instances created under one name share a graph node).
    """

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            _MONITOR.note_acquire(self)
        return got

    def release(self) -> None:
        _MONITOR.note_release(self)
        self._inner.release()

    def held_by_current(self) -> bool:
        """True when the calling thread currently holds this lock."""
        return _MONITOR.holds(self)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"InstrumentedLock({self.name!r}, {kind})"


def new_lock(name: str):
    """A mutex: plain ``threading.Lock`` unless ``REPRO_ANALYSIS=1``."""
    return InstrumentedLock(name) if enabled() else threading.Lock()


def new_rlock(name: str):
    """A re-entrant mutex: plain ``threading.RLock`` unless ``REPRO_ANALYSIS=1``."""
    return InstrumentedLock(name, reentrant=True) if enabled() else threading.RLock()


def guarded(cls):
    """Class decorator installing the write canary on ``GUARDED_BY`` fields.

    With ``REPRO_ANALYSIS`` off (or no declaration) the class is returned
    untouched.  With it on, ``__setattr__`` checks every write to a guarded
    field: writes from the constructing thread are allowed (init and
    single-threaded use), writes from any other thread must hold the
    declared lock — an :class:`InstrumentedLock` found under the declared
    attribute name — or a violation is recorded.

    Apply *above* ``@dataclass`` so it decorates the finished class.
    """
    fields = dict(getattr(cls, "GUARDED_BY", {}) or {})
    if not enabled() or not fields:
        return cls
    original = cls.__setattr__

    def checked_setattr(self, name, value):
        lock_attr = fields.get(name)
        if lock_attr is not None:
            d = object.__getattribute__(self, "__dict__")
            owner = d.get("_canary_owner_thread")
            if owner is None:
                d["_canary_owner_thread"] = threading.get_ident()
            elif threading.get_ident() != owner:
                lock = d.get(lock_attr)
                if not (isinstance(lock, InstrumentedLock) and lock.held_by_current()):
                    _MONITOR.note_violation(
                        cls.__name__,
                        name,
                        f"cross-thread write without holding {lock_attr}",
                    )
        original(self, name, value)

    cls.__setattr__ = checked_setattr
    return cls
