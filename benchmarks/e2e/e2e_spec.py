"""Workload sizes and the ledger of which workload measures which metric.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root (the one source every tool reads); this module adds what
that file's fixed layout has no room for: the sizes of the five workloads
and, for each kind of workload, the end-to-end names it does not measure.
"""

from __future__ import annotations

import copy

K = 8
VERIFY_SAMPLES = 256
SMOKE_DIVISOR = 20
#: Batches the traced run's ledger sends through each front door, as
#: (single-query batches, full batches of 256) per pass.  Fixed counts, not a
#: time budget, so that every count the ledger reads repeats exactly.
LEDGER_BATCHES = (100, 12)

#: ``unit_s`` is how many of a run's ``--seconds`` one repeat stands for (about
#: its timed calls on the 2-core reference box); a run makes
#: ``round(seconds / unit_s)`` repeats, so the repeat count (and with it every
#: sample count) does not depend on how fast the box is.
WORKLOADS = {
    "batch_3d": {
        "kind": "batch", "dims": 3, "n_points": 500_000, "n_queries": 30_000,
        "n_ranks": 4, "unit_s": 2.1,
    },
    "batch_10d": {
        "kind": "batch", "dims": 10, "n_points": 100_000, "n_queries": 2_000,
        "n_ranks": 4, "unit_s": 2.1,
        # One 10-D batch of 256 costs a second per layer peeled.
        "ledger_batches": (10, 1),
    },
    "service_hotkey": {
        "kind": "service", "dims": 3, "n_points": 200_000,
        "universe": 16_384, "zipf_s": 1.1,
        # (phase, requests, Poisson rate per second; None = burst)
        "phases": [("low", 2_000, 50.0), ("high", 6_000, 20_000.0), ("burst", 30_000, None)],
        "unit_s": 2.2,
    },
    "fleet_uniform": {
        "kind": "fleet", "dims": 3, "n_points": 200_000,
        "n_shards": 4, "n_replicas": 2, "jitter": 1e-3,
        "phases": [("low", 1_000, 20.0), ("high", 500, 3_000.0), ("burst", 2_560, None)],
        "unit_s": 2.2,
    },
    "fleet_stream": {
        "kind": "stream", "dims": 3, "n_points": 200_000,
        "n_shards": 4, "n_replicas": 2, "jitter": 1e-3,
        "n_ops": 1_000, "rate": 2.0, "op_mix": (0.80, 0.15, 0.05),
        "insert_size": 16, "delete_size": 48, "warmup_ops": 200,
        "unit_s": 5.0,
    },
}

_COUNT_KEYS = ("n_points", "n_queries", "universe", "n_ops", "warmup_ops")


def workload_spec(name: str, smoke: bool = False) -> dict:
    """The named workload's sizes; ``smoke`` divides every count by 20."""
    spec = copy.deepcopy(WORKLOADS[name])
    spec.setdefault("ledger_batches", LEDGER_BATCHES)
    if smoke:
        spec["ledger_batches"] = tuple(max(n // SMOKE_DIVISOR, 1) for n in spec["ledger_batches"])
        for key in _COUNT_KEYS:
            if key in spec:
                spec[key] = max(spec[key] // SMOKE_DIVISOR, 1)
        if "phases" in spec:
            spec["phases"] = [
                (phase, max(n // SMOKE_DIVISOR, 1), rate) for phase, n, rate in spec["phases"]
            ]
        spec["unit_s"] = spec["unit_s"] / SMOKE_DIVISOR
    return spec


#: The driver wants every end-to-end name from every workload.  A name a
#: workload does not measure carries one of that workload's own readings,
#: so the slot is a real, never-zero number that moves only when the
#: workload itself moves and can neither pass nor fail on its own.
#: ``batch_ms`` is the median ``kneighbors`` wall time in milliseconds.
CARRIER = {
    "batch": {
        **dict.fromkeys(
            ("low_p50_ms", "low_p99_ms", "high_p50_ms", "read_p50_ms", "read_p99_ms",
             "write_mean_ms"),
            "batch_ms",
        ),
        "capacity_qps": "query_per_s",
        "stream_ops_per_s": "query_per_s",
    },
    "service": {
        "query_per_s": "capacity_qps", "stream_ops_per_s": "capacity_qps",
        "read_p50_ms": "low_p50_ms", "read_p99_ms": "low_p99_ms", "write_mean_ms": "low_p50_ms",
    },
    "stream": {
        "query_per_s": "stream_ops_per_s", "capacity_qps": "stream_ops_per_s",
        "low_p50_ms": "read_p50_ms", "low_p99_ms": "read_p99_ms", "high_p50_ms": "read_p50_ms",
    },
}
CARRIER["fleet"] = CARRIER["service"]


def measures(workload: str, metric: str) -> bool:
    """Whether ``workload`` measures the end-to-end ``metric`` itself."""
    return metric not in CARRIER[WORKLOADS[workload]["kind"]]
