"""Admission control: a bounded pending queue with shed/reject accounting.

A fleet serving heavy traffic must bound the work it promises: once the
pending queue is full, either the *newest* request is rejected outright
(``"reject"``, the default — callers get immediate backpressure) or the
*oldest* pending request is shed to admit the new one (``"shed"`` —
freshness wins, a stale queued request is the least valuable thing in the
building).  Both outcomes are counted and surfaced in the fleet-wide
statistics so overload is observable, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Admission verdicts returned by :meth:`AdmissionController.on_submit`.
ADMIT = "admit"
REJECT = "reject"
SHED = "shed"

_MODES = ("reject", "shed")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounded-queue parameters.

    Attributes
    ----------
    max_pending:
        Maximum requests the fleet may hold undispatched.
    mode:
        ``"reject"`` refuses the incoming request when full; ``"shed"``
        drops the oldest pending request and admits the incoming one.
    """

    max_pending: int = 1024
    mode: str = "reject"

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown admission mode {self.mode!r}; expected one of {_MODES}")


@dataclass
class AdmissionStats:
    """What happened to every request offered to the fleet."""

    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    #: Peak pending-queue depth observed at submit time — the high-water
    #: mark that says how close to the ``max_pending`` cliff traffic ran.
    max_queue_depth: int = 0

    def note(self, verdict: str, n_pending: int) -> None:
        """Record one admission verdict."""
        self.max_queue_depth = max(self.max_queue_depth, n_pending)
        if verdict == REJECT:
            self.rejected += 1
            return
        self.admitted += 1
        if verdict == SHED:
            self.shed += 1

    @property
    def offered(self) -> int:
        """Requests ever submitted (admitted + rejected; shed were admitted
        first and dropped later)."""
        return self.admitted + self.rejected

    def as_dict(self) -> Dict[str, float]:
        return {
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "shed": float(self.shed),
            "max_queue_depth": float(self.max_queue_depth),
        }


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` and keeps the books."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.stats = AdmissionStats()

    def on_submit(self, n_pending: int) -> str:
        """Verdict for one incoming request given the current queue depth.

        Returns :data:`ADMIT`, :data:`REJECT`, or :data:`SHED` (admit the
        new request, but the caller must drop its oldest pending one).
        """
        if n_pending < self.policy.max_pending:
            verdict = ADMIT
        elif self.policy.mode == "reject":
            verdict = REJECT
        else:
            verdict = SHED
        self.stats.note(verdict, n_pending)
        return verdict
