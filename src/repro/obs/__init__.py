"""Fleet-wide observability plane: metrics, tracing, structured events.

Three independent layers, all dependency-free and thread-safe:

* :mod:`repro.obs.metrics` + :mod:`repro.obs.prometheus` — labeled
  counters/gauges/log-bucketed histograms in an :class:`ObsRegistry`,
  exported in Prometheus text format (``KNNFleet.metrics_text()``).
* :mod:`repro.obs.tracing` — sampled per-micro-batch span trees threaded
  through the dispatch plane (``REPRO_OBS`` controls sampling, default
  off), exported as JSON-lines or Chrome trace-event JSON for Perfetto.
* :mod:`repro.obs.events` — a ring-buffered structured ops event log
  (replica death/heal, rebuild, admission reject/shed, cache
  full-clear).

:mod:`repro.obs.clock` supplies the injectable monotonic clock every
timestamp in the serving stack reads through.

On top of the passive layers sits the **active ops surface**:

* :mod:`repro.obs.server` — ``KNNFleet.serve_ops()``'s threaded HTTP
  endpoint (``/metrics``, ``/healthz``, ``/readyz``, ``/events``,
  ``/traces``, ``/slo``) and the ``python -m repro.obs.server``
  standalone demo.
* :mod:`repro.obs.slo` — declarative SLOs evaluated as multi-window
  error-budget burn rates, exported as ``repro_slo_*`` metrics and
  ``slo_breach``/``slo_recovered`` events.
"""

from repro.obs.clock import MONOTONIC, Clock, ManualClock, MonotonicClock
from repro.obs.collectors import fleet_families
from repro.obs.events import Event, EventLog, ScopedEvents
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    ObsRegistry,
    Sample,
    counter_family,
    gauge_family,
    log_buckets,
)
from repro.obs.prometheus import parse_prometheus_text, render_text
from repro.obs.server import METRICS_CONTENT_TYPE, OpsServer, readiness_reasons
from repro.obs.slo import DEFAULT_WINDOWS, SLO, SLOEngine, fleet_slos
from repro.obs.tracing import (
    OBS_ENV,
    Span,
    SpanSink,
    Tracer,
    TraceRecord,
    obs_sample_every,
)

__all__ = [
    "MONOTONIC",
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "fleet_families",
    "Event",
    "EventLog",
    "ScopedEvents",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "ObsRegistry",
    "Sample",
    "counter_family",
    "gauge_family",
    "log_buckets",
    "parse_prometheus_text",
    "render_text",
    "METRICS_CONTENT_TYPE",
    "OpsServer",
    "readiness_reasons",
    "DEFAULT_WINDOWS",
    "SLO",
    "SLOEngine",
    "fleet_slos",
    "OBS_ENV",
    "Span",
    "SpanSink",
    "Tracer",
    "TraceRecord",
    "obs_sample_every",
]
