"""Declarative SLO engine with multi-window burn-rate evaluation.

An :class:`SLO` names an objective ("99% of requests under 50 ms") and a
*source*: a callable returning the cumulative ``(good, total)`` event
counts backing the SLI.  The :class:`SLOEngine` samples every source on
``tick()``, keeps a short history on the injectable clock, and computes
**burn rates** over multiple lookback windows::

    burn = bad_fraction / error_budget        # error_budget = 1 - objective

A burn rate of 1.0 means the error budget is being consumed exactly at
the sustainable rate; 10x means ten times too fast.  A breach fires only
when *every* configured window exceeds its threshold — the standard
multi-window alerting shape: the long window proves the problem is real,
the short window proves it is still happening (and clears the alert
quickly once it stops).

The engine emits ``slo_breach`` / ``slo_recovered`` ops events on state
transitions and exports ``repro_slo_*`` metric families, so the same
state is visible in ``/slo``, ``/events``, and ``/metrics``.

:func:`fleet_slos` builds the standard objective set for a
:class:`~repro.fleet.fleet.KNNFleet` (latency, availability, replica
survival) from its histogram and admission ledger — duck-typed like the
collectors, so ``obs`` keeps its one-way import rule.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.clock import MONOTONIC, Clock
from repro.obs.events import EventLog
from repro.obs.metrics import MetricFamily, counter_family, gauge_family

#: Default burn-rate windows for fleet SLOs: ``(window_seconds, threshold)``.
#: Short by production standards (Google's canonical pair is 1 h/5 m at 14.4x)
#: because this fleet's benches and tests run in seconds — the *shape* is the
#: multi-window AND, the horizons are tuned to the workload.
DEFAULT_WINDOWS: Tuple[Tuple[float, float], ...] = ((10.0, 2.0), (60.0, 1.0))


@dataclass(frozen=True)
class SLO:
    """One service-level objective over a cumulative good/total counter pair.

    ``source`` must return monotonically non-decreasing cumulative counts;
    the engine differences consecutive samples, so restarts/resets are the
    caller's problem (a reset reads as a burst of negative delta and the
    window is skipped until history catches up).
    """

    name: str
    description: str
    objective: float
    source: Callable[[], Tuple[float, float]]
    windows: Tuple[Tuple[float, float], ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: objective must be in (0, 1), got {self.objective}"
            )
        if not self.windows:
            raise ValueError(f"SLO {self.name!r}: need at least one burn window")
        for window_s, threshold in self.windows:
            if window_s <= 0 or threshold <= 0:
                raise ValueError(
                    f"SLO {self.name!r}: window seconds and burn threshold must be "
                    f"positive, got ({window_s}, {threshold})"
                )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass
class _SLOState:
    """Per-SLO sample history and breach latch (engine-internal)."""

    slo: SLO
    history: Deque[Tuple[float, float, float]] = field(default_factory=deque)
    breached: bool = False
    breaches: int = 0


class SLOEngine:
    """Samples SLO sources on ``tick()`` and latches breach state.

    Sources are read *outside* the engine lock — a histogram source takes
    its own instrument lock, and the engine lock must stay a leaf.  Breach/recovery events are likewise emitted after
    the lock is released.
    """

    GUARDED_BY = {"_states": "_lock", "_ticks": "_lock"}

    #: History never grows past this many samples per SLO regardless of
    #: window horizons — a tick() called in a tight loop stays bounded.
    MAX_HISTORY = 4096

    def __init__(
        self,
        slos: List[SLO],
        clock: Clock | None = None,
        events: EventLog | None = None,
    ) -> None:
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.clock = clock if clock is not None else MONOTONIC
        self.events = events
        self._lock = threading.Lock()
        self._states: Dict[str, _SLOState] = {s.name: _SLOState(slo=s) for s in slos}
        self._ticks = 0

    @property
    def slos(self) -> List[SLO]:
        with self._lock:
            return [state.slo for state in self._states.values()]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def tick(self, at: float | None = None) -> Dict[str, Dict[str, object]]:
        """Sample every source, update burn rates, fire transition events.

        Returns the same per-SLO status mapping as :meth:`status`.
        """
        now = self.clock.monotonic() if at is None else float(at)
        # The state map is fixed at construction; snapshot it under the
        # lock, then read sources *outside* it — each source grabs its own
        # instrument lock and the engine lock must stay a leaf.
        with self._lock:
            states = dict(self._states)
        readings: Dict[str, Tuple[float, float]] = {}
        for name, state in states.items():
            good, total = state.slo.source()
            readings[name] = (float(good), float(total))

        transitions: List[Tuple[str, str, Dict[str, object]]] = []
        with self._lock:
            self._ticks += 1
            out: Dict[str, Dict[str, object]] = {}
            for name, state in states.items():
                good, total = readings[name]
                history = state.history
                history.append((now, good, total))
                self._prune(history, now, state.slo)
                burns = self._burn_rates(history, now, state.slo)
                breached = bool(burns) and all(
                    burn is not None and burn >= threshold
                    for (_, threshold), burn in zip(state.slo.windows, burns)
                )
                if breached and not state.breached:
                    state.breached = True
                    state.breaches += 1
                    transitions.append(("slo_breach", name, {"burn_rates": burns}))
                elif not breached and state.breached:
                    state.breached = False
                    transitions.append(("slo_recovered", name, {"burn_rates": burns}))
                out[name] = self._status_row(state, burns, good, total)
        for kind, name, fields in transitions:
            self._emit(kind, name, now, fields)
        return out

    def _emit(self, kind: str, name: str, at: float, fields: Dict[str, object]) -> None:
        if self.events is None:
            return
        burns = fields.get("burn_rates") or []
        self.events.emit(
            kind,
            at=at,
            slo=name,
            burn_rates=[None if b is None else round(b, 4) for b in burns],
        )

    def _prune(
        self, history: Deque[Tuple[float, float, float]], now: float, slo: SLO
    ) -> None:
        horizon = max(window_s for window_s, _ in slo.windows)
        # Keep one sample at-or-before the horizon as the delta base for
        # the widest window; drop everything older than that.
        while len(history) >= 2 and history[1][0] <= now - horizon:
            history.popleft()
        while len(history) > self.MAX_HISTORY:
            history.popleft()

    @staticmethod
    def _burn_rates(
        history: Deque[Tuple[float, float, float]], now: float, slo: SLO
    ) -> List[Optional[float]]:
        """Burn rate per configured window; ``None`` when the window has no
        traffic (no delta) yet."""
        latest_t, latest_good, latest_total = history[-1]
        burns: List[Optional[float]] = []
        for window_s, _ in slo.windows:
            cutoff = now - window_s
            base = history[0]
            for row in history:
                if row[0] <= cutoff:
                    base = row
                else:
                    break
            d_total = latest_total - base[2]
            d_good = latest_good - base[1]
            if d_total <= 0 or d_good < 0:
                burns.append(None)
                continue
            bad_fraction = max(0.0, (d_total - d_good) / d_total)
            burns.append(bad_fraction / slo.error_budget)
        return burns

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @staticmethod
    def _status_row(
        state: _SLOState, burns: List[Optional[float]], good: float, total: float
    ) -> Dict[str, object]:
        slo = state.slo
        return {
            "description": slo.description,
            "objective": slo.objective,
            "good": good,
            "total": total,
            "windows": [
                {
                    "window_s": window_s,
                    "threshold": threshold,
                    "burn_rate": burn,
                }
                for (window_s, threshold), burn in zip(slo.windows, burns)
            ],
            "breached": state.breached,
            "breaches": state.breaches,
        }

    def status(self) -> Dict[str, Dict[str, object]]:
        """Latest per-SLO state (burn rates as of the last ``tick``)."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name, state in self._states.items():
                if state.history:
                    now, good, total = state.history[-1]
                    burns = self._burn_rates(state.history, now, state.slo)
                else:
                    good = total = 0.0
                    burns = [None for _ in state.slo.windows]
                out[name] = self._status_row(state, burns, good, total)
            return out

    def families(self) -> List[MetricFamily]:
        """``repro_slo_*`` metric families (ticks first, so a scrape is live).

        Registered as a metrics-registry callback by the fleet; every
        scrape therefore re-evaluates the objectives.
        """
        status = self.tick()
        objective: List[Tuple[Dict[str, object], float]] = []
        burn: List[Tuple[Dict[str, object], float]] = []
        breached: List[Tuple[Dict[str, object], float]] = []
        breaches: List[Tuple[Dict[str, object], float]] = []
        for name in sorted(status):
            row = status[name]
            objective.append(({"slo": name}, float(row["objective"])))
            breached.append(({"slo": name}, 1.0 if row["breached"] else 0.0))
            breaches.append(({"slo": name}, float(row["breaches"])))
            for window in row["windows"]:
                value = window["burn_rate"]
                burn.append(
                    (
                        {"slo": name, "window_s": f"{window['window_s']:g}"},
                        0.0 if value is None else float(value),
                    )
                )
        return [
            gauge_family(
                "repro_slo_objective", "Configured SLO objective.", objective
            ),
            gauge_family(
                "repro_slo_burn_rate",
                "Error-budget burn rate per lookback window (0 when no traffic).",
                burn,
            ),
            gauge_family(
                "repro_slo_breached",
                "1 while the SLO is in breached state (all windows over threshold).",
                breached,
            ),
            counter_family(
                "repro_slo_breaches_total",
                "Breach transitions observed since engine start.",
                breaches,
            ),
        ]


# ----------------------------------------------------------------------
# Standard fleet objectives
# ----------------------------------------------------------------------
def fleet_slos(
    fleet,
    latency_target_s: float = 0.05,
    latency_objective: float = 0.99,
    availability_objective: float = 0.999,
    survival_objective: float = 0.999,
    windows: Tuple[Tuple[float, float], ...] | None = None,
) -> List[SLO]:
    """The standard SLO set for a ``KNNFleet`` (duck-typed, no fleet import).

    - ``latency``: fraction of requests completing within
      ``latency_target_s``, read from the fleet latency histogram via
      :meth:`~repro.obs.metrics.Histogram.count_le` (conservative between
      bucket bounds, exact at bounds — pick a target on a bucket bound for
      exact accounting).
    - ``availability``: admitted-and-served fraction of offered requests
      (sheds and rejects burn budget) from the admission ledger.
    - ``replica_survival``: shard visits that did not coincide with a
      replica death, from the fleet stats counters.
    """
    win = DEFAULT_WINDOWS if windows is None else tuple(windows)
    hist = fleet.latency_histogram

    def latency_source() -> Tuple[float, float]:
        good, total = hist.count_le(latency_target_s)
        return good, total

    def availability_source() -> Tuple[float, float]:
        counts = fleet.admission.stats.as_dict()
        good = float(counts["admitted"]) - float(counts["shed"])
        return good, float(counts["offered"])

    def survival_source() -> Tuple[float, float]:
        visits = float(fleet.router.stats.as_dict()["shard_visits"])
        deaths = float(sum(group.deaths for group in fleet.groups))
        return visits, visits + deaths

    return [
        SLO(
            name="latency",
            description=(
                f"{latency_objective:.1%} of requests complete within "
                f"{latency_target_s * 1e3:g} ms"
            ),
            objective=latency_objective,
            source=latency_source,
            windows=win,
        ),
        SLO(
            name="availability",
            description=(
                f"{availability_objective:.1%} of offered requests are admitted "
                "and served (not shed or rejected)"
            ),
            objective=availability_objective,
            source=availability_source,
            windows=win,
        ),
        SLO(
            name="replica_survival",
            description=(
                f"{survival_objective:.1%} of shard visits complete without a "
                "replica death"
            ),
            objective=survival_objective,
            source=survival_source,
            windows=win,
        ),
    ]
