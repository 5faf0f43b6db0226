"""Thread-safe labeled metrics: counters, gauges, log-bucketed histograms.

A minimal, dependency-free metrics model shaped after the Prometheus
client data model:

* an instrument (:class:`Counter` / :class:`Gauge` / :class:`Histogram`)
  owns every labeled *series* of one metric name;
* :class:`ObsRegistry` owns the instruments, rejects duplicate names, and
  turns the whole set into an immutable list of :class:`MetricFamily`
  snapshots on :meth:`~ObsRegistry.collect`;
* scrape-time *callback families* bridge the stats the serving stack
  already keeps (plain counters on the service/fleet classes) into the
  same snapshot without double-bookkeeping.

Each instrument serialises its series dict behind its own lock (leaf
locks: nothing is ever acquired while one is held), so hot-path updates
from the driving thread and scrapes from the ops server's threads can
race freely.  The registry class is named ``ObsRegistry`` — the cluster layer
already owns the name ``MetricsRegistry`` for per-rank phase counters.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
        if label == "le":
            raise ValueError("label name 'le' is reserved for histogram buckets")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names}")
    return names


def _label_key(labelnames: Tuple[str, ...], labelvalues: Dict[str, object]) -> Tuple[str, ...]:
    """Canonical series key: label values in declared-label order."""
    if set(labelvalues) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labelvalues)}"
        )
    return tuple(str(labelvalues[name]) for name in labelnames)


# ----------------------------------------------------------------------
# Snapshot model (immutable, what the exporter consumes)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``.

    ``labels`` is a tuple of ``(label_name, label_value)`` pairs sorted by
    label name — the canonical exposition ordering, ``le`` included.
    """

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


@dataclass(frozen=True)
class MetricFamily:
    """One metric name with its type, help text and samples."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram" | "untyped"
    help: str
    samples: Tuple[Sample, ...] = ()


def _sorted_labels(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def counter_family(
    name: str, help_: str, rows: Iterable[Tuple[Dict[str, object], float]]
) -> MetricFamily:
    """Build a counter family from ``(labels, value)`` rows (callback use)."""
    return _value_family(name, "counter", help_, rows)


def gauge_family(
    name: str, help_: str, rows: Iterable[Tuple[Dict[str, object], float]]
) -> MetricFamily:
    """Build a gauge family from ``(labels, value)`` rows (callback use)."""
    return _value_family(name, "gauge", help_, rows)


def _value_family(name, kind, help_, rows) -> MetricFamily:
    _validate_metric_name(name)
    samples = tuple(
        Sample(name, _sorted_labels(labels), float(value))
        for labels, value in sorted(
            ((dict(labels), value) for labels, value in rows),
            key=lambda row: _sorted_labels(row[0]),
        )
    )
    return MetricFamily(name, kind, help_, samples)


# ----------------------------------------------------------------------
# Histogram bucket helpers
# ----------------------------------------------------------------------


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> Tuple[float, ...]:
    """Geometric bucket bounds from ``lo`` up to (at least) ``hi``.

    ``per_decade`` bounds per factor of 10; values rounded to 6
    significant digits so the exposition text stays stable.
    """
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n = math.ceil(math.log10(hi / lo) * per_decade)
    out = [float(f"{lo * 10 ** (i / per_decade):.6g}") for i in range(n + 1)]
    # Rounding can duplicate adjacent bounds at coarse significands.
    return tuple(dict.fromkeys(out))


#: Default latency buckets: 1 microsecond to 10 seconds, 3 per decade.
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-6, 10.0, per_decade=3)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


class _Bound:
    """A label-bound handle onto an instrument (stateless delegate)."""

    __slots__ = ("_family", "_labelvalues")

    def __init__(self, family, labelvalues: Dict[str, object]) -> None:
        self._family = family
        self._labelvalues = dict(labelvalues)

    def inc(self, amount: float = 1.0) -> None:
        self._family.inc(amount, **self._labelvalues)

    def dec(self, amount: float = 1.0) -> None:
        self._family.dec(amount, **self._labelvalues)

    def set(self, value: float) -> None:
        self._family.set(value, **self._labelvalues)

    def observe(self, value: float) -> None:
        self._family.observe(value, **self._labelvalues)


class Counter:
    """Monotonically increasing metric, one series per label tuple."""

    kind = "counter"
    GUARDED_BY = {"_series": "_lock"}

    def __init__(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_metric_name(name)
        self.help = help_
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._series[()] = 0.0

    def labels(self, **labelvalues) -> _Bound:
        _label_key(self.labelnames, labelvalues)  # validate eagerly
        return _Bound(self, labelvalues)

    def inc(self, amount: float = 1.0, **labelvalues) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        key = _label_key(self.labelnames, labelvalues)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def snapshot(self) -> MetricFamily:
        with self._lock:
            rows = sorted(self._series.items())
        return MetricFamily(
            self.name,
            self.kind,
            self.help,
            tuple(
                Sample(self.name, _sorted_labels(dict(zip(self.labelnames, key))), value)
                for key, value in rows
            ),
        )


class Gauge:
    """Set-to-current-value metric, one series per label tuple."""

    kind = "gauge"
    GUARDED_BY = {"_series": "_lock"}

    def __init__(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_metric_name(name)
        self.help = help_
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._series[()] = 0.0

    def labels(self, **labelvalues) -> _Bound:
        _label_key(self.labelnames, labelvalues)
        return _Bound(self, labelvalues)

    def set(self, value: float, **labelvalues) -> None:
        key = _label_key(self.labelnames, labelvalues)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labelvalues) -> None:
        key = _label_key(self.labelnames, labelvalues)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labelvalues) -> None:
        self.inc(-amount, **labelvalues)

    def snapshot(self) -> MetricFamily:
        with self._lock:
            rows = sorted(self._series.items())
        return MetricFamily(
            self.name,
            self.kind,
            self.help,
            tuple(
                Sample(self.name, _sorted_labels(dict(zip(self.labelnames, key))), value)
                for key, value in rows
            ),
        )


class Histogram:
    """Log- (or arbitrarily-) bucketed distribution metric.

    Stores per-bucket increments; :meth:`snapshot` emits the cumulative
    ``_bucket`` samples Prometheus expects (``le`` inclusive upper bound,
    final ``+Inf`` bucket equal to ``_count``), plus ``_sum``/``_count``.
    """

    kind = "histogram"
    GUARDED_BY = {"_series": "_lock"}

    def __init__(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = _validate_metric_name(name)
        self.help = help_
        self.labelnames = _validate_labelnames(labelnames)
        bounds = [float(b) for b in (buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)]
        if sorted(set(bounds)) != bounds or not bounds:
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        if math.inf not in bounds:
            bounds.append(math.inf)
        self.bounds = tuple(bounds)
        self._lock = threading.Lock()
        # key -> [per-bucket counts (list, index-aligned with bounds), sum]
        self._series: Dict[Tuple[str, ...], list] = {}
        if not self.labelnames:
            self._series[()] = [[0] * len(self.bounds), 0.0]

    def labels(self, **labelvalues) -> _Bound:
        _label_key(self.labelnames, labelvalues)
        return _Bound(self, labelvalues)

    def observe(self, value: float, **labelvalues) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        key = _label_key(self.labelnames, labelvalues)
        # First bound >= value == the inclusive `le` bucket this value
        # lands in; the trailing +Inf bound guarantees the index exists.
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = self._series[key] = [[0] * len(self.bounds), 0.0]
            cell[0][idx] += 1
            cell[1] += value

    def quantile(self, q: float, **labelvalues) -> float:
        """Interpolated ``q``-quantile of one labeled series.

        Linear interpolation inside the bucket where the cumulative count
        crosses ``q * total`` — the standard estimate for log-bucketed
        histograms (what a Prometheus ``histogram_quantile()`` computes
        server-side, here computed at the source).  Observations are
        assumed non-negative (the first bucket interpolates from 0), and
        mass in the ``+Inf`` bucket clamps to the largest finite bound —
        the histogram cannot see past its own bucket layout.  An empty
        series answers 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = _label_key(self.labelnames, labelvalues)
        with self._lock:
            cell = self._series.get(key)
            counts = list(cell[0]) if cell is not None else []
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, counts):
            if count and cumulative + count >= target:
                if math.isinf(bound):
                    return lower
                return lower + (bound - lower) * ((target - cumulative) / count)
            cumulative += count
            if not math.isinf(bound):
                lower = bound
        return lower

    def count_le(self, value: float, **labelvalues) -> Tuple[float, float]:
        """``(observations known <= value, total observations)`` atomically.

        Counts every bucket whose upper bound is ``<= value`` — exact when
        ``value`` is a bucket bound, conservative (an undercount) between
        bounds.  Both numbers come from one locked read, so the pair is a
        consistent good/total reading for SLO arithmetic even while
        workers keep observing.
        """
        value = float(value)
        key = _label_key(self.labelnames, labelvalues)
        with self._lock:
            cell = self._series.get(key)
            counts = list(cell[0]) if cell is not None else []
        below = sum(
            count for bound, count in zip(self.bounds, counts) if bound <= value
        )
        return float(below), float(sum(counts))

    def snapshot(self) -> MetricFamily:
        with self._lock:
            rows = [
                (key, list(cell[0]), cell[1]) for key, cell in sorted(self._series.items())
            ]
        samples: List[Sample] = []
        for key, counts, total in rows:
            base = dict(zip(self.labelnames, key))
            running = 0
            for bound, count in zip(self.bounds, counts):
                running += count
                le = "+Inf" if math.isinf(bound) else format_bound(bound)
                samples.append(
                    Sample(
                        self.name + "_bucket",
                        _sorted_labels({**base, "le": le}),
                        float(running),
                    )
                )
            samples.append(Sample(self.name + "_sum", _sorted_labels(base), float(total)))
            samples.append(Sample(self.name + "_count", _sorted_labels(base), float(running)))
        return MetricFamily(self.name, self.kind, self.help, tuple(samples))


def format_bound(bound: float) -> str:
    """Stable text for a finite bucket bound (``2.0`` renders as ``2.0``)."""
    text = repr(float(bound))
    return text


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class ObsRegistry:
    """Owns instruments and scrape callbacks; snapshots them on demand.

    ``collect()`` copies the instrument/callback lists under the registry
    lock, then snapshots and invokes them *outside* it — callbacks reach
    into locked serving-stack state (e.g. ``KNNService`` internals) and
    must not run under any observability lock.
    """

    GUARDED_BY = {"_families": "_lock", "_callbacks": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, object] = {}
        self._callbacks: List[Callable[[], Iterable[MetricFamily]]] = []

    def counter(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_, labelnames))

    def gauge(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_, labelnames))

    def histogram(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._register(Histogram(name, help_, labelnames, buckets))

    def _register(self, instrument):
        with self._lock:
            if instrument.name in self._families:
                raise ValueError(f"metric {instrument.name!r} already registered")
            self._families[instrument.name] = instrument
        return instrument

    def register_callback(self, callback: Callable[[], Iterable[MetricFamily]]) -> None:
        """Add a scrape-time family producer (runs on every collect)."""
        with self._lock:
            self._callbacks.append(callback)

    def collect(self) -> List[MetricFamily]:
        """Every family, instruments and callbacks merged, sorted by name."""
        with self._lock:
            instruments = list(self._families.values())
            callbacks = list(self._callbacks)
        families = [instrument.snapshot() for instrument in instruments]
        for callback in callbacks:
            families.extend(callback())
        seen: Dict[str, str] = {}
        for fam in families:
            if fam.name in seen:
                raise ValueError(f"duplicate metric family {fam.name!r} at collect time")
            seen[fam.name] = fam.kind
        return sorted(families, key=lambda fam: fam.name)

    def render(self) -> str:
        """Prometheus text exposition of :meth:`collect`."""
        from repro.obs.prometheus import render_text

        return render_text(self.collect())
