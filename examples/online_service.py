"""Online serving: warm-start from a snapshot, stream updates, query live.

Run with::

    python examples/online_service.py

The script builds a kd-tree index once and snapshots it to disk, then
warm-starts a :class:`~repro.service.service.KNNService` from the snapshot
(no rebuild — the restored tree answers byte-identically).  It
streams batches of new points into the service, deletes a few original
ones, issues interactive queries against the live set, and prints the
per-request latency statistics the service accounts for every answer.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.datasets.cosmology import cosmology_particles
from repro.kdtree.query import brute_force_knn
from repro.kdtree.serialize import snapshot_nbytes
from repro.service import KNNService, LocalTreeBackend, MicroBatchPolicy, RebuildPolicy


def main() -> None:
    rng = np.random.default_rng(0)
    points = cosmology_particles(30_000, seed=7)

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Offline: build the kd-tree once and snapshot it.
        snapshot = LocalTreeBackend.fit(points).save(Path(tmp) / "tree")
        print(f"snapshot written to {snapshot.name} "
              f"({snapshot_nbytes(snapshot) / 1e6:.1f} MB)")

        # 2. Online: warm-start the service from the snapshot (no rebuild).
        service = KNNService(
            LocalTreeBackend.load(snapshot),
            k=5,
            batch_policy=MicroBatchPolicy(max_batch=256, max_delay_s=2e-3),
            rebuild_policy=RebuildPolicy(max_inserts=2_000, max_tombstones=500),
        )
        print(f"service warm-started over {service.backend.n_points} points "
              f"(tree depth {service.backend.tree.stats.max_depth})")

    # 3. Stream inserts: fresh points arrive in batches.
    fresh = points[rng.choice(points.shape[0], 3_000, replace=False)] + rng.normal(
        scale=0.05, size=(3_000, 3)
    )
    inserted = [service.insert(chunk) for chunk in np.array_split(fresh, 12)]
    inserted_ids = np.concatenate(inserted)
    print(f"streamed {inserted_ids.size} inserts "
          f"({service.rebuilds} policy-triggered rebuild(s) so far)")

    # 4. Delete some of the originally indexed points (tombstoned until the
    #    next rebuild, filtered exactly in the meantime).
    service.delete(np.arange(200))
    print(f"deleted 200 original points; live set: {service.n_live}")

    # 5. Interactive queries against the live set, verified by brute force.
    queries = fresh[:200]
    live_points = np.concatenate([points[200:], fresh], axis=0)
    live_ids = np.concatenate([np.arange(200, points.shape[0]), inserted_ids])
    reference, _ = brute_force_knn(live_points, live_ids, queries, 5)
    for row, q in enumerate(queries):
        distances, ids = service.query(q)
        assert np.allclose(distances, reference[row])
    print(f"answered {queries.shape[0]} interactive queries (brute-force verified)")

    # 6. Latency accounting the service keeps per request.
    summary = service.latency_summary()
    print("\nlatency statistics")
    print(f"  requests        : {summary['n_requests']:.0f}")
    print(f"  p50 latency     : {summary['p50_latency_s'] * 1e3:.3f} ms")
    print(f"  p99 latency     : {summary['p99_latency_s'] * 1e3:.3f} ms")
    print(f"  throughput      : {summary['qps']:.0f} qps")
    print(f"  cache hit rate  : {summary['cache_hit_rate']:.1%}")
    print(f"  mean batch size : {summary['mean_batch_size']:.1f}")
    print(f"  rebuilds        : {service.rebuilds} ({service.rebuild_seconds:.3f} s)")


if __name__ == "__main__":
    main()
