"""Wall-clock sampling profiler with serving-phase attribution.

Answers the question the metrics plane cannot: *where does CPU/wall time
go inside a serving phase?*  A daemon thread samples
``sys._current_frames()`` at a configured rate and folds each sampled
thread's stack into bounded collapsed-stack counts — the
``root;...;leaf count`` format flamegraph.pl and speedscope both ingest
directly.

Attribution rides on **phase tags**: serving code wraps its hot sections
in ``with phase("router.scatter"): ...`` and the sampler prefixes every
sampled stack with the innermost tag active on that thread at sample
time.  Tags live in a module-level ``{thread ident -> tag tuple}`` map
(thread-locals cannot be read cross-thread); entries are immutable
tuples, so the sampler's racy reads always see a consistent stack.  A
tag push/pop is two dict operations per *phase*, not per query — cheap
enough to leave in permanently, and it never touches answer bytes.

Opt-in: ``REPRO_PROFILE=<hz>`` makes :class:`~repro.fleet.fleet.KNNFleet`
start an always-on profiler it stops at ``close()``; the ops server's
``/profile?seconds=N`` endpoint runs short-lived ad-hoc instances.  The
fleet benchmark asserts the overhead bound (profiler-on wall time within
10% + 0.25 s of off) and byte-identical answers either way.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List, Optional, Tuple


#: Environment variable enabling the fleet's always-on profiler
#: (``REPRO_PROFILE=97`` samples at 97 Hz; unset/0 disables).
PROFILE_ENV = "REPRO_PROFILE"

#: Default sampling rate (Hz) for ad-hoc profilers (``/profile`` endpoint,
#: benches).  Deliberately not a round number, so sampling cannot phase-lock
#: with periodic serving work and systematically miss (or over-count) it.
DEFAULT_PROFILE_HZ = 97.0

#: Sampled phase name for threads with no active tag.
UNTAGGED = "untagged"

#: thread ident -> tuple of nested phase tags (innermost last).  Values are
#: immutable tuples replaced whole, so the GIL makes every reader — the
#: sampler included — see a consistent stack without a lock.
_PHASES: Dict[int, Tuple[str, ...]] = {}


def profile_hz() -> float:
    """Sampling rate requested via ``REPRO_PROFILE`` (0.0 when unset/off)."""
    raw = os.environ.get(PROFILE_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        hz = float(raw)
    except ValueError:
        raise ValueError(
            f"invalid {PROFILE_ENV}={raw!r}: expected a sampling rate in Hz "
            f"(e.g. {PROFILE_ENV}=97), or unset/0 to disable"
        ) from None
    if hz < 0:
        raise ValueError(f"invalid {PROFILE_ENV}={raw!r}: rate must be >= 0")
    return hz


class phase:
    """Context manager tagging the current thread with a serving phase.

    Nestable; the sampler attributes samples to the *innermost* active
    tag, so a ``service.answer`` section inside a ``dispatch.shard_call``
    worker reads as service time — self-time attribution, which is what a
    breakdown wants.  Exit always restores the outer tag, exceptions
    included.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "phase":
        ident = threading.get_ident()
        _PHASES[ident] = _PHASES.get(ident, ()) + (self.name,)
        return self

    def __exit__(self, *exc: object) -> bool:
        ident = threading.get_ident()
        stack = _PHASES.get(ident, ())
        if len(stack) <= 1:
            _PHASES.pop(ident, None)
        else:
            _PHASES[ident] = stack[:-1]
        return False


def current_phase(ident: int | None = None) -> Optional[str]:
    """Innermost phase tag of a thread (default: the calling thread)."""
    stack = _PHASES.get(threading.get_ident() if ident is None else ident)
    return stack[-1] if stack else None


def _frame_label(code) -> str:
    """``file.py:function`` with the path shortened to its basename."""
    filename = code.co_filename
    slash = filename.rfind("/")
    if slash >= 0:
        filename = filename[slash + 1 :]
    return f"{filename}:{code.co_name}"


class SamplingProfiler:
    """Daemon-thread sampler folding stacks into bounded phase-tagged counts.

    Parameters
    ----------
    hz:
        Samples per second (must be positive; callers gate on
        :func:`profile_hz` themselves).
    max_stacks:
        Cap on distinct folded stacks held; once full, new stacks count
        into ``dropped`` instead of growing the dict — a long-running
        profiler stays bounded no matter how varied the stacks get.
    max_depth:
        Frames kept per stack (deepest-caller side truncated).

    ``start``/``stop`` are idempotent; every aggregate read
    (:meth:`folded`, :meth:`top_self`, :meth:`phase_totals`,
    :meth:`stats`) is safe while sampling runs.
    """

    GUARDED_BY = {"_folded": "_lock", "_samples": "_lock", "_dropped": "_lock"}

    def __init__(
        self,
        hz: float = DEFAULT_PROFILE_HZ,
        max_stacks: int = 4096,
        max_depth: int = 25,
    ) -> None:
        if not hz > 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        if max_stacks < 1 or max_depth < 1:
            raise ValueError(
                f"need max_stacks >= 1 and max_depth >= 1, got {max_stacks}/{max_depth}"
            )
        self.hz = float(hz)
        self.interval = 1.0 / float(hz)
        self.max_stacks = int(max_stacks)
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        # (phase, frame, frame, ...) -> sample count; leaf frame last.
        self._folded: Dict[Tuple[str, ...], int] = {}
        self._samples = 0
        self._dropped = 0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Begin sampling on a daemon thread (no-op when already running)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (idempotent)."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _run(self) -> None:
        # Event.wait doubles as the sampling sleep: stop() wakes it
        # immediately instead of waiting out the interval.
        while not self._stop_event.wait(self.interval):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one sample of every other thread; returns threads sampled.

        Public so tests (and the ``/profile`` endpoint's short windows)
        can sample deterministically without racing the wall clock.
        """
        own = threading.get_ident()
        rows: List[Tuple[str, ...]] = []
        # sys._current_frames() returns a snapshot dict; frames may keep
        # running while we walk them, which is inherent to (and fine for)
        # statistical sampling.
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            tags = _PHASES.get(ident)
            tag = tags[-1] if tags else UNTAGGED
            rows.append((tag,) + self._walk(frame))
        with self._lock:
            for key in rows:
                if key in self._folded:
                    self._folded[key] += 1
                elif len(self._folded) < self.max_stacks:
                    self._folded[key] = 1
                else:
                    self._dropped += 1
            self._samples += len(rows)
        return len(rows)

    def _walk(self, frame) -> Tuple[str, ...]:
        """Caller-first frame labels, truncated to ``max_depth``."""
        parts: List[str] = []
        while frame is not None and len(parts) < self.max_depth:
            parts.append(_frame_label(frame.f_code))
            frame = frame.f_back
        if frame is not None:
            parts.append("(truncated)")
        parts.reverse()
        return tuple(parts)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def folded(self) -> str:
        """Collapsed-stack text: ``phase;caller;...;leaf count`` per line.

        The exact format ``flamegraph.pl`` and speedscope import; the
        phase tag is the root frame, so a flamegraph groups by serving
        phase at the base.
        """
        with self._lock:
            rows = sorted(self._folded.items())
        return "".join(f"{';'.join(key)} {count}\n" for key, count in rows)

    def top_self(self, n: int = 10) -> List[Tuple[str, str, int]]:
        """Top-``n`` ``(phase, leaf frame, samples)`` by self time.

        Self time is exactly what leaf-frame sample counts estimate: the
        function actually on-CPU (or blocking) when the sampler fired.
        """
        with self._lock:
            rows = list(self._folded.items())
        totals: Dict[Tuple[str, str], int] = {}
        for key, count in rows:
            leaf = (key[0], key[-1] if len(key) > 1 else "(no frame)")
            totals[leaf] = totals.get(leaf, 0) + count
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        return [(phase_, leaf, count) for (phase_, leaf), count in ranked[:n]]

    def phase_totals(self) -> Dict[str, int]:
        """Samples per phase tag (every frame of a stack counts once)."""
        with self._lock:
            rows = list(self._folded.items())
        totals: Dict[str, int] = {}
        for key, count in rows:
            totals[key[0]] = totals.get(key[0], 0) + count
        return totals

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "hz": self.hz,
                "samples": float(self._samples),
                "distinct_stacks": float(len(self._folded)),
                "dropped_stacks": float(self._dropped),
            }
