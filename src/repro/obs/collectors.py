"""Scrape-time collectors: serving-stack stats as metric families.

The serving classes already keep exact counters (admission ledger,
router fan-out, dispatch calls, replica health, and each shard service's
cache and rebuild accounting).  Rather than double-book every
increment into instruments, a collector reads those sources once per
scrape and emits them as gauge/counter families.

Everything is duck-typed against the fleet's public surface — ``obs``
never imports from ``repro.fleet``/``repro.service``, so the dependency
arrow points one way (serving → obs) and no import cycle can form.

None of those counters locks: a scrape reads them through
:meth:`KNNFleet.metrics_text`, which holds the fleet's one lock, so it
never sees a batch half done (the ops server's ``/metrics`` goes the same
way).
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.metrics import MetricFamily, counter_family, gauge_family


def fleet_families(fleet) -> List[MetricFamily]:
    """Every scrape-time family for one :class:`~repro.fleet.fleet.KNNFleet`."""
    families: List[MetricFamily] = []
    families.extend(_request_families(fleet))
    families.extend(_admission_families(fleet))
    families.extend(_router_families(fleet))
    families.extend(_dispatch_families(fleet))
    families.extend(_shard_families(fleet))
    families.extend(_service_families(fleet))
    families.extend(_ops_families(fleet))
    return families


def _request_families(fleet) -> List[MetricFamily]:
    return [
        counter_family(
            "repro_fleet_requests_total",
            "Requests completed by the fleet (evicted records included).",
            [({}, float(fleet.records.n_total))],
        ),
        gauge_family(
            "repro_fleet_pending_requests",
            "Requests accepted but not yet dispatched.",
            [({}, float(fleet.n_pending))],
        ),
        gauge_family(
            "repro_fleet_live_points",
            "Live (non-tombstoned) points across every shard.",
            [({}, float(fleet.n_live))],
        ),
    ]


def _admission_families(fleet) -> List[MetricFamily]:
    ledger = fleet.admission.stats.as_dict()
    return [
        counter_family(
            "repro_admission_requests_total",
            "Admission verdicts over every offered request.",
            [
                ({"verdict": verdict}, float(ledger.get(verdict, 0.0)))
                for verdict in ("admitted", "rejected", "shed")
            ],
        ),
        gauge_family(
            "repro_admission_max_queue_depth",
            "Deepest pending queue the admission controller has seen.",
            [({}, float(ledger.get("max_queue_depth", 0.0)))],
        ),
    ]


def _router_families(fleet) -> List[MetricFamily]:
    stats = fleet.router.stats.as_dict()
    return [
        counter_family(
            "repro_router_queries_total",
            "Query rows routed through the fleet router.",
            [({}, float(stats["queries"]))],
        ),
        counter_family(
            "repro_router_shard_visits_total",
            "Per-query shard visits (fan-out numerator).",
            [({}, float(stats["shard_visits"]))],
        ),
        counter_family(
            "repro_router_owner_only_total",
            "Query rows answered by their owner shard alone.",
            [({}, float(stats["owner_only"]))],
        ),
        counter_family(
            "repro_router_broadcast_queries_total",
            "Query rows broadcast to every shard (non-spatial plans).",
            [({}, float(stats["broadcasts"]))],
        ),
        counter_family(
            "repro_router_phase_seconds_total",
            "Wall seconds per routing phase.",
            [
                ({"phase": "owner"}, float(stats["owner_seconds"])),
                ({"phase": "scatter"}, float(stats["scatter_seconds"])),
            ],
        ),
        gauge_family(
            "repro_router_mean_fanout",
            "Mean shards visited per query (n_shards when never pruned).",
            [({}, float(stats["mean_fanout"]))],
        ),
    ]


def _dispatch_families(fleet) -> List[MetricFamily]:
    stats = fleet.dispatcher.stats.as_dict()
    return [
        counter_family(
            "repro_dispatch_calls_total",
            "Shard calls by outcome on the dispatch plane.",
            [
                ({"outcome": outcome}, float(stats[outcome]))
                for outcome in ("completed", "failed")
            ],
        ),
        counter_family(
            "repro_dispatch_submitted_total",
            "Shard calls submitted to the dispatcher.",
            [({}, float(stats["submitted"]))],
        ),
    ]


def _shard_families(fleet) -> List[MetricFamily]:
    live_rows, alive_rows = [], []
    death_rows, retry_rows = [], []
    replica_alive, replica_served = [], []
    for group in fleet.groups:
        shard = {"shard": group.shard_id}
        live_rows.append((shard, float(group.n_live)))
        alive_rows.append((shard, float(group.n_alive)))
        death_rows.append((shard, float(group.deaths)))
        retry_rows.append((shard, float(group.retries)))
        for replica in group.replicas:
            labels = {"shard": group.shard_id, "replica": replica.replica_id}
            replica_alive.append((labels, 1.0 if replica.alive else 0.0))
            replica_served.append((labels, float(replica.queries_served)))
    return [
        gauge_family(
            "repro_shard_live_points", "Live points per shard.", live_rows
        ),
        gauge_family(
            "repro_shard_replicas_alive", "Alive replicas per shard.", alive_rows
        ),
        counter_family(
            "repro_replica_deaths_total", "Replica deaths per shard.", death_rows
        ),
        counter_family(
            "repro_replica_retries_total",
            "Failed attempts retried on a peer replica, per shard.",
            retry_rows,
        ),
        gauge_family(
            "repro_replica_alive", "Liveness flag per replica.", replica_alive
        ),
        counter_family(
            "repro_replica_queries_served_total",
            "Query batches served per replica.",
            replica_served,
        ),
    ]


_SERVICE_COUNTERS = {
    "rebuilds": (
        "repro_service_rebuilds_total",
        "Folds run per shard service.",
    ),
    "rebuild_seconds": (
        "repro_service_rebuild_seconds_total",
        "Wall seconds spent rebuilding per shard service.",
    ),
    "refetched_rows": (
        "repro_service_refetched_rows_total",
        "Answer rows sent back to the tree because they held a tombstoned id.",
    ),
    "cache_hits": ("repro_service_cache_hits_total", "Result-cache hits."),
    "cache_misses": ("repro_service_cache_misses_total", "Result-cache misses."),
    "cache_evictions": (
        "repro_service_cache_evictions_total",
        "Result-cache LRU evictions.",
    ),
    "cache_full_clears": (
        "repro_service_cache_full_clears_total",
        "Whole-cache invalidations (a new index).",
    ),
    "cache_keys_dropped": (
        "repro_service_cache_keys_dropped_total",
        "Incremental cache invalidations (streaming updates).",
    ),
}

_SERVICE_GAUGES = {
    "version": ("repro_service_version", "Index version per shard service."),
    "delta_inserts": (
        "repro_service_delta_inserts",
        "Streamed inserts pending the next rebuild.",
    ),
    "tombstones": (
        "repro_service_tombstones",
        "Deleted ids pending the next rebuild.",
    ),
    "cache_size": ("repro_service_cache_entries", "Result-cache entries held."),
}


def _service_families(fleet) -> List[MetricFamily]:
    rows: Dict[str, List] = {key: [] for key in (*_SERVICE_COUNTERS, *_SERVICE_GAUGES)}
    for group in fleet.groups:
        snap = group.service.obs_snapshot()
        labels = {"shard": group.shard_id}
        for key in rows:
            rows[key].append((labels, float(snap.get(key, 0.0))))
    families = [
        counter_family(name, help_, rows[key])
        for key, (name, help_) in _SERVICE_COUNTERS.items()
    ]
    families.extend(
        gauge_family(name, help_, rows[key])
        for key, (name, help_) in _SERVICE_GAUGES.items()
    )
    return families


def _ops_families(fleet) -> List[MetricFamily]:
    families = [
        counter_family(
            "repro_ops_events_total",
            "Structured ops events by kind (lifetime, eviction-proof).",
            sorted(
                ((({"kind": kind}), float(count)) for kind, count in fleet.events.counts().items()),
                key=lambda row: row[0]["kind"],
            ),
        )
    ]
    tracer = fleet.tracer.stats()
    families.append(
        counter_family(
            "repro_trace_batches_total",
            "Micro-batches seen/sampled by the tracer.",
            [
                ({"outcome": "seen"}, float(tracer["batches_seen"])),
                ({"outcome": "sampled"}, float(tracer["batches_sampled"])),
            ],
        )
    )
    return families
