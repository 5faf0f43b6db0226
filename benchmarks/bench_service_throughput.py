"""Serving benchmark: open-loop arrival traces through the KNN service.

Drives :class:`~repro.service.service.KNNService` with three open-loop
arrival traces (uniform Poisson, bursty on/off, Zipf-skewed hot keys) and
reports per-trace p50/p99 latency, sustained QPS, cache hit rate and mean
micro-batch size, plus a streaming-update section that pushes inserts and
deletes through a policy-triggered rebuild while verifying a sampled set of
answers against brute force.

The same arrival traces are also replayed through the buffered kd-tree
baseline (Gieseke et al., Fig. 8a): queries accumulate at the leaves of a
large-bucket tree and are processed in coherent blocks.  Both disciplines
share the single-server queue model (dispatch at ``max(flush, server
free)``, completion after the measured batch wall time), so the printed
rows expose the throughput-vs-latency trade-off the paper discusses —
buffering amortises traversal further but holds requests longer.

Arrivals are logical timestamps; compute cost is the *measured* wall time
of each dispatched batch, run through a single-server queue model — so the
reported latencies combine real compute with honest queueing/batching
delay.

Run directly (like the other benchmark drivers)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py          # full size
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke  # CI size
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.baselines.buffered import BufferedKDTreeKNN
from repro.datasets.cosmology import cosmology_particles
from repro.kdtree.query import brute_force_knn
from repro.service import (
    KNNService,
    LocalTreeBackend,
    MicroBatchPolicy,
    RebuildPolicy,
    RecordRing,
    RequestRecord,
    bursty_trace,
    hotkey_trace,
    uniform_trace,
)

FULL_SIZE = dict(n_points=100_000, n_requests=20_000, rate=50_000.0, k=8,
                 n_stream=4_000, stream_buffer=1_000, buffered_block=2_048)
SMOKE_SIZE = dict(n_points=4_000, n_requests=1_200, rate=20_000.0, k=5,
                  n_stream=300, stream_buffer=120, buffered_block=256)


def make_service(points: np.ndarray, k: int, cache_capacity: int = 8192) -> KNNService:
    """Service over a freshly built local-tree backend."""
    return KNNService(
        LocalTreeBackend.fit(points),
        k=k,
        batch_policy=MicroBatchPolicy(max_batch=512, max_delay_s=2e-3),
        cache_capacity=cache_capacity,
    )


def run_trace(service: KNNService, times: np.ndarray, queries: np.ndarray) -> dict:
    """Feed one trace open-loop and return the latency summary."""
    for t, q in zip(times, queries):
        service.submit(q, at=t)
    service.drain(at=float(times[-1]))
    return service.latency_summary()


def make_traces(points: np.ndarray, n_requests: int, rate: float, seed: int) -> dict:
    """The three open-loop arrival traces (shared by service and baseline)."""
    return {
        "uniform": uniform_trace(n_requests, rate, pool=points, seed=seed),
        "bursty": bursty_trace(n_requests, rate / 4, rate * 2, pool=points, seed=seed),
        "hotkey": hotkey_trace(n_requests, rate, pool=points, n_hot=64, hot_fraction=0.9, seed=seed),
    }


def run_arrival_traces(points: np.ndarray, traces: dict, k: int):
    """Each arrival trace against a fresh service."""
    results = {}
    for name, (times, queries) in traces.items():
        service = make_service(points, k)
        results[name] = run_trace(service, times, queries)
    return results


def run_buffered_traces(
    points: np.ndarray, traces: dict, k: int, block: int, seed: int = 13
) -> dict:
    """Replay the same arrival traces through the buffered kd-tree baseline.

    The buffered discipline has no deadline: requests accumulate until a
    block of ``block`` arrivals is complete (or the trace ends), then the
    whole block is pushed through the leaf-buffered traversal.  Dispatch
    and completion follow the same single-server queue model as
    :class:`~repro.service.service.KNNService`, so latency percentiles and
    QPS are directly comparable.  A sampled exactness check against brute
    force guards the baseline's answers.
    """
    rng = np.random.default_rng(seed)
    index = BufferedKDTreeKNN(buffer_size=block).fit(points)
    ref_ids = np.arange(points.shape[0])
    results = {}
    for name, (times, queries) in traces.items():
        n = times.shape[0]
        server_free = 0.0
        records = RecordRing(n)  # holds every request: p50/p99 over the whole trace
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            flush_time = float(times[hi - 1])  # block is full on its last arrival
            dispatch = max(flush_time, server_free)
            started = time.perf_counter()
            d, i, _ = index.query(queries[lo:hi], k)
            elapsed = time.perf_counter() - started
            completion = dispatch + elapsed
            server_free = completion
            for j in range(lo, hi):
                records.append(
                    RequestRecord(
                        request_id=j,
                        arrival=float(times[j]),
                        dispatch=dispatch,
                        completion=completion,
                        cache_hit=False,
                        batch_size=hi - lo,
                    )
                )
            if lo == 0:
                sample = rng.choice(hi - lo, size=min(16, hi - lo), replace=False)
                ref_d, _ = brute_force_knn(points, ref_ids, queries[lo:hi][sample], k)
                assert np.allclose(d[sample], ref_d), f"buffered baseline diverges on {name}"
        results[name] = records.summary()
    return results


def run_streaming(n_points: int, n_stream: int, stream_buffer: int, k: int, seed: int = 11) -> dict:
    """Streaming inserts/deletes through a policy rebuild, sampled-exactness checked."""
    rng = np.random.default_rng(seed)
    points = cosmology_particles(n_points, seed=seed)
    service = KNNService(
        LocalTreeBackend.fit(points),
        k=k,
        rebuild_policy=RebuildPolicy(max_inserts=stream_buffer, max_tombstones=stream_buffer // 4),
    )
    fresh = points[rng.choice(n_points, size=n_stream, replace=False)] + rng.normal(
        scale=0.05, size=(n_stream, points.shape[1])
    )
    inserted = []
    chunk = max(stream_buffer // 8, 1)
    for lo in range(0, n_stream, chunk):
        inserted.append(service.insert(fresh[lo : lo + chunk]))
        # Interleave queries so rebuilds happen mid-traffic.
        service.query(fresh[lo], k=k)
    inserted_ids = np.concatenate(inserted)
    service.delete(inserted_ids[: max(n_stream // 10, 1)])
    service.delete(np.arange(max(n_points // 100, 1)))

    # Sampled exactness of the final state against brute force.
    live_points = np.concatenate([points, fresh], axis=0)
    live_ids = np.concatenate([np.arange(n_points), inserted_ids])
    dead = np.concatenate([inserted_ids[: max(n_stream // 10, 1)], np.arange(max(n_points // 100, 1))])
    mask = ~np.isin(live_ids, dead)
    sample = rng.choice(live_points.shape[0], size=min(64, live_points.shape[0]), replace=False)
    ref_d, _ = brute_force_knn(live_points[mask], live_ids[mask], live_points[sample], k)
    for row, q in enumerate(live_points[sample]):
        d, _ = service.query(q, k=k)
        assert np.allclose(d, ref_d[row]), f"service answer diverges from brute force at row {row}"

    summary = service.latency_summary()
    summary["rebuilds"] = float(service.rebuilds)
    summary["rebuild_seconds"] = service.rebuild_seconds
    summary["n_live"] = float(service.n_live)
    return summary


def format_row(name: str, s: dict) -> str:
    return (
        f"  {name:<10s} p50 {s['p50_latency_s'] * 1e3:8.3f} ms   "
        f"p99 {s['p99_latency_s'] * 1e3:8.3f} ms   "
        f"qps {s['qps']:10.0f}   "
        f"cache {s['cache_hit_rate']:5.1%}   "
        f"batch {s['mean_batch_size']:6.1f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-sized run")
    args = parser.parse_args()
    size = SMOKE_SIZE if args.smoke else FULL_SIZE

    print(
        f"service throughput: {size['n_points']} points, {size['n_requests']} requests/trace, "
        f"k={size['k']}"
    )
    points = cosmology_particles(size["n_points"], seed=7)
    traces = make_traces(points, size["n_requests"], size["rate"], seed=7)
    results = run_arrival_traces(points, traces, size["k"])
    for name, summary in results.items():
        print(format_row(name, summary))

    print(f"buffered kd-tree baseline (Fig. 8a discipline, block={size['buffered_block']}):")
    buffered = run_buffered_traces(points, traces, size["k"], size["buffered_block"])
    for name, summary in buffered.items():
        print(format_row(f"buf/{name}", summary))

    stream = run_streaming(size["n_points"], size["n_stream"], size["stream_buffer"], size["k"])
    print(
        f"  streaming  p50 {stream['p50_latency_s'] * 1e3:8.3f} ms   "
        f"p99 {stream['p99_latency_s'] * 1e3:8.3f} ms   "
        f"rebuilds {stream['rebuilds']:.0f} ({stream['rebuild_seconds']:.3f} s)   "
        f"live {stream['n_live']:.0f}   [exactness verified]"
    )


if __name__ == "__main__":
    main()
