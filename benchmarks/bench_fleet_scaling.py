"""Fleet scaling benchmark: QPS/p99 and measured fan-out vs shard count.

Replays the same open-loop uniform arrival trace through sharded fleets of
growing size (tree-planned regions, clustered cosmology data) and reports
per-configuration p50/p99 latency, sustained QPS, and the router's
*measured* mean fan-out — the count of shards a query actually touched.
Region routing must provably prune: on clustered data the mean fan-out
stays below ``n_shards`` (asserted for every multi-shard row), because most
queries' k-th-distance balls never cross their region's box.  A hash-
sharded fleet of the same size is run as the no-geometry control: it
broadcasts every query to every shard by construction.

A built-in exactness spot-check compares sampled fleet answers against
brute force, and a streaming section pushes inserts through foreground
folds mid-trace, one per shard build, served by the shard's replicas.

Results are written as a perf-trajectory artifact — ``BENCH_fleet.json``
at the repo root (the deterministic location CI asserts), with a copy
under ``benchmarks/results/`` — so successive runs can be compared.

NOTE: this harness runs every shard in one process, so absolute QPS *falls*
as shards are added (each dispatched batch pays the scatter-gather calls
sequentially); the numbers that matter for scaling are the fan-out column
(work per query, which pruning keeps near 1 regardless of shard count) and
the tree-vs-hash gap at equal shard count (the price of losing geometry).
On a real deployment the per-shard calls run on separate machines and the
fan-out is the dominant cost.

Run directly (like the other benchmark drivers)::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py          # full size
    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py --smoke  # CI size
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.datasets.cosmology import cosmology_particles
from repro.fleet import KNNFleet
from repro.kdtree.query import brute_force_knn
from repro.obs import Tracer, parse_prometheus_text
from repro.perf import BENCH_SCHEMA_VERSION, run_metadata, write_bench_artifact
from repro.service import MicroBatchPolicy, RebuildPolicy, uniform_trace

FULL_SIZE = dict(n_points=60_000, n_requests=8_000, rate=40_000.0, k=8,
                 shard_counts=(1, 2, 4, 8), n_stream=2_000, stream_buffer=500)
SMOKE_SIZE = dict(n_points=6_000, n_requests=1_000, rate=20_000.0, k=5,
                  shard_counts=(1, 2, 4), n_stream=240, stream_buffer=100)


def build_fleet(points: np.ndarray, n_shards: int, k: int, strategy: str = "tree") -> KNNFleet:
    return KNNFleet.build(
        points,
        n_shards=n_shards,
        strategy=strategy,
        k=k,
        batch_policy=MicroBatchPolicy(max_batch=512, max_delay_s=2e-3),
    )


def run_trace(fleet: KNNFleet, times: np.ndarray, queries: np.ndarray) -> dict:
    """Feed the trace open-loop; returns the fleet's flattened stats row."""
    for t, q in zip(times, queries):
        fleet.submit(q, at=t)
    fleet.drain(at=float(times[-1]))
    stats = fleet.stats()
    return {
        "p50_latency_s": stats["p50_latency_s"],
        "p99_latency_s": stats["p99_latency_s"],
        "qps": stats["qps"],
        "mean_fanout": stats["router"]["mean_fanout"],
        "owner_only": stats["router"]["owner_only"],
        "rejected": stats["admission"]["rejected"],
    }


def check_exactness(fleet: KNNFleet, points: np.ndarray, k: int, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    sample = points[rng.choice(points.shape[0], 32, replace=False)] + 0.01
    ref_d, _ = brute_force_knn(points, np.arange(points.shape[0]), sample, k)
    d, _ = fleet.router.answer(sample, k)
    assert np.allclose(d, ref_d), "fleet answers diverge from brute force"


def run_shard_sweep(points: np.ndarray, size: dict, seed: int = 7) -> list:
    times, queries = uniform_trace(size["n_requests"], size["rate"], pool=points, seed=seed)
    rows = []
    for n_shards in size["shard_counts"]:
        fleet = build_fleet(points, n_shards, size["k"])
        row = {"n_shards": n_shards, "strategy": "tree"}
        row.update(run_trace(fleet, times, queries))
        # Spot-check AFTER the trace so the asserted fan-out stats cover
        # exactly the trace's queries, uncontaminated by the check's own.
        check_exactness(fleet, points, size["k"])
        if n_shards > 1:
            # The acceptance bar: region routing provably prunes on
            # clustered data — measured fan-out strictly below n_shards.
            assert row["mean_fanout"] < n_shards, (
                f"no pruning at {n_shards} shards: fan-out {row['mean_fanout']:.2f}"
            )
        rows.append(row)
    # No-geometry control at the largest shard count: broadcasts everywhere.
    n_control = size["shard_counts"][-1]
    fleet = build_fleet(points, n_control, size["k"], strategy="hash")
    row = {"n_shards": n_control, "strategy": "hash"}
    row.update(run_trace(fleet, times, queries))
    assert row["mean_fanout"] == n_control, "hash plan must broadcast"
    rows.append(row)
    return rows


def run_streaming(points: np.ndarray, size: dict, seed: int = 11) -> dict:
    """Inserts through foreground folds, exactness sampled."""
    rng = np.random.default_rng(seed)
    k = size["k"]
    n_shards = size["shard_counts"][-1]
    fleet = KNNFleet.build(
        points,
        n_shards=n_shards,
        n_replicas=2,
        k=k,
        # Inserts spread across shards; scale the per-shard trigger down so
        # the trace actually drives every shard through a fold.
        rebuild_policy=RebuildPolicy(max_inserts=max(size["stream_buffer"] // (2 * n_shards), 8)),
    )
    fresh = points[rng.choice(points.shape[0], size["n_stream"], replace=False)] + rng.normal(
        scale=0.05, size=(size["n_stream"], points.shape[1])
    )
    t = 0.0
    chunk = max(size["stream_buffer"] // 8, 1)
    inserted = []
    for lo in range(0, size["n_stream"], chunk):
        t += 1e-3
        inserted.append(fleet.insert(fresh[lo : lo + chunk], at=t))
        t += 1e-3
        fleet.query(fresh[lo], k=k, at=t)  # interleave traffic with rebuilds
    live_points = np.concatenate([points, fresh], axis=0)
    live_ids = np.concatenate([np.arange(points.shape[0]), np.concatenate(inserted)])
    sample = rng.choice(live_points.shape[0], size=32, replace=False)
    ref_d, _ = brute_force_knn(live_points, live_ids, live_points[sample], k)
    for row, q in enumerate(live_points[sample]):
        t += 1e-3
        d, _ = fleet.query(q, k=k, at=t)
        assert np.allclose(d, ref_d[row]), "fleet diverges from brute force mid-stream"
    for group in fleet.groups:
        assert all(r.service is group.service for r in group.replicas), (
            "a shard's replicas must serve its one service"
        )
    rebuilds = sum(g.rebuilds for g in fleet.groups)
    return {"rebuilds": float(rebuilds), "n_live": float(fleet.n_live)}


def run_observability_check(points: np.ndarray, size: dict, seed: int = 17) -> dict:
    """Observability A/B: plain vs fully-instrumented run of one trace.

    Three assertions CI depends on: answers stay byte-identical with
    tracing every micro-batch, the metrics snapshot round-trips the strict
    Prometheus parser, and the instrumented run costs < 5% wall clock over
    the plain run (plus a 0.25 s absolute slack floor so sub-second smoke
    runs cannot flake on scheduler noise).
    """
    times, queries = uniform_trace(size["n_requests"], size["rate"], pool=points, seed=seed)
    n_shards = size["shard_counts"][-1]

    def one(tracer: Tracer) -> tuple:
        fleet = KNNFleet.build(
            points,
            n_shards=n_shards,
            n_replicas=2,
            k=size["k"],
            batch_policy=MicroBatchPolicy(max_batch=512, max_delay_s=2e-3),
            tracer=tracer,
        )
        started = time.perf_counter()
        request_ids = [fleet.submit(q, at=t) for t, q in zip(times, queries)]
        fleet.drain(at=float(times[-1]))
        elapsed = time.perf_counter() - started
        answers = [fleet.result(r) for r in request_ids]
        text = fleet.metrics_text()
        traces = fleet.tracer.traces()
        fleet.close()
        return answers, elapsed, text, traces

    plain_answers, plain_s, _, _ = one(Tracer(enabled=False))
    obs_answers, obs_s, text, traces = one(Tracer(enabled=True, sample_every=1, capacity=16))

    for (d_p, i_p), (d_o, i_o) in zip(plain_answers, obs_answers):
        assert np.array_equal(d_p, d_o) and np.array_equal(i_p, i_o), (
            "observability changed an answer"
        )
    families = parse_prometheus_text(text)
    assert "repro_fleet_requests_total" in families, "metrics scrape missing core family"
    assert traces, "tracing produced no span trees"
    cats = {span.cat for record in traces for span in record.root.walk()}
    assert {"batch", "router", "phase", "shard_call", "replica_attempt"} <= cats, (
        f"span tree incomplete: {sorted(cats)}"
    )
    assert obs_s <= plain_s * 1.05 + 0.25, (
        f"observability overhead too high: {obs_s:.3f}s vs {plain_s:.3f}s plain"
    )
    return {
        "plain_s": plain_s,
        "observed_s": obs_s,
        "overhead_pct": (obs_s / plain_s - 1.0) * 100.0 if plain_s > 0 else 0.0,
        "metric_families": len(families),
        "traces": len(traces),
        "span_categories": sorted(cats),
    }


def format_row(row: dict) -> str:
    return (
        f"  {row['strategy']:>5s} x{row['n_shards']:<2d} "
        f"p50 {row['p50_latency_s'] * 1e3:8.3f} ms   "
        f"p99 {row['p99_latency_s'] * 1e3:8.3f} ms   "
        f"qps {row['qps']:10.0f}   "
        f"fan-out {row['mean_fanout']:5.2f}   "
        f"owner-only {row['owner_only']:7.0f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-sized run")
    args = parser.parse_args()
    size = SMOKE_SIZE if args.smoke else FULL_SIZE

    print(
        f"fleet scaling: {size['n_points']} clustered points, "
        f"{size['n_requests']} requests, k={size['k']}"
    )
    points = cosmology_particles(size["n_points"], seed=7)
    started = time.perf_counter()
    rows = run_shard_sweep(points, size)
    for row in rows:
        print(format_row(row))

    stream = run_streaming(points, size)
    print(
        f"  streaming: {stream['rebuilds']:.0f} shard folds, "
        f"{stream['n_live']:.0f} live points   [exactness verified]"
    )

    obs = run_observability_check(points, size)
    print(
        f"  observability: {obs['metric_families']} metric families, "
        f"{obs['traces']} traces, overhead {obs['overhead_pct']:+.1f}% "
        "[byte-identical, strict-parsed]"
    )

    artifact = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "fleet_scaling",
        "smoke": bool(args.smoke),
        "run": run_metadata(),
        "elapsed_s": time.perf_counter() - started,
        "config": {key: list(v) if isinstance(v, tuple) else v for key, v in size.items()},
        "rows": rows,
        "streaming": stream,
        "observability": obs,
    }
    path = write_bench_artifact("BENCH_fleet.json", artifact)
    print(f"[saved to {path}]")


if __name__ == "__main__":
    main()
