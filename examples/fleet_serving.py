"""Sharded serving fleet: region routing, replication, chaos, rebuilds.

Run with::

    python examples/fleet_serving.py

The script cuts a clustered dataset into region shards, serves it from a
replicated :class:`~repro.fleet.fleet.KNNFleet`, and walks through the
fleet's whole repertoire: pruned scatter-gather queries (watch the mean
fan-out stay near 1 while the shard count is 4), a replica dying mid-query
and being retried transparently, streaming inserts that trigger one fold
per shard with a versioned snapshot trail on disk, and admission
control shedding load when the queue fills — all with answers verified
against brute force along the way. It finishes on the observability
plane: a strict-parsed Prometheus metrics scrape, the structured ops
event log, a Perfetto-loadable trace of sampled queries, and the live
ops surface — health and metrics probed over real HTTP — and the SLO
burn-rate summary.
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro.core.snapshot import current_version_dir, list_snapshot_versions
from repro.fleet import AdmissionPolicy, KNNFleet
from repro.kdtree.query import brute_force_knn
from repro.obs import Tracer, parse_prometheus_text
from repro.service import RebuildPolicy


def main() -> None:
    rng = np.random.default_rng(0)
    centers = rng.uniform(-40, 40, size=(12, 3))
    points = np.concatenate([c + rng.normal(scale=0.8, size=(2_500, 3)) for c in centers])
    print(f"dataset: {points.shape[0]} points in {centers.shape[0]} clusters")

    with tempfile.TemporaryDirectory() as tmp:
        fleet = KNNFleet.build(
            points,
            n_shards=4,
            n_replicas=2,
            k=5,
            rebuild_policy=RebuildPolicy(max_inserts=300),
            admission_policy=AdmissionPolicy(max_pending=2048, mode="shed"),
            snapshot_root=Path(tmp) / "fleet_snapshots",
            tracer=Tracer(enabled=True, sample_every=20, capacity=32),
        )
        sizes = fleet.plan.shard_sizes()
        print(f"plan: {fleet.n_shards} region shards x 2 replicas, "
              f"{sizes.min()}-{sizes.max()} points each")

        # 1. Pruned scatter-gather: most queries never leave their region.
        queries = points[rng.choice(points.shape[0], 2_000, replace=False)] + 0.02
        t = 0.0
        for q in queries:
            t += 2e-5
            fleet.submit(q, at=t)
        fleet.drain(at=t)
        stats = fleet.stats()
        print(f"queries: p50 {stats['p50_latency_s'] * 1e3:.2f} ms, "
              f"qps {stats['qps']:.0f}, mean fan-out "
              f"{stats['router']['mean_fanout']:.2f} of {fleet.n_shards} shards")

        # 2. Chaos drill: the next-picked replica dies mid-query; the group
        #    retries on its peer and the answer does not change.
        probe = queries[0]
        d_before, _ = fleet.query(probe, at=t + 1.0)
        victim_shard = int(fleet.plan.owner_of(probe[None, :])[0])
        fleet.arm_replica_failure(victim_shard, fleet.groups[victim_shard].primary().replica_id)
        d_after, _ = fleet.query(probe, at=t + 2.0)
        assert np.array_equal(d_before, d_after)
        group = fleet.groups[victim_shard]
        print(f"chaos: shard {victim_shard} lost a replica mid-query "
              f"({group.n_alive}/{group.n_replicas} alive, {group.retries} retry) — "
              "answers unchanged")
        print(f"heal: revived {fleet.heal(at=t + 3.0)} replica onto its shard's service")

        # 3. Streaming inserts trip the rebuild policy: a shard folds them
        #    into its tree once, in the write that tripped it, and leaves a
        #    versioned snapshot trail.  Its replicas all serve that one index.
        t += 10.0
        fresh = points[rng.choice(points.shape[0], 2_400, replace=False)] + rng.normal(
            scale=0.05, size=(2_400, 3)
        )
        for lo in range(0, fresh.shape[0], 200):
            t += 1e-2
            fleet.insert(fresh[lo : lo + 200], at=t)
            t += 1e-2
            fleet.query(fresh[lo], at=t)  # keep traffic flowing between rebuilds
        builds = [g.rebuilds for g in fleet.groups]
        fold_ms = 1e3 * sum(e.to_dict()["fold_s"] for e in fleet.events.snapshot("rebuild"))
        shared = all(r.service is g.service for g in fleet.groups for r in g.replicas)
        roots = sorted((Path(tmp) / "fleet_snapshots").glob("shard*"))
        versions = sum(len(list_snapshot_versions(root)) for root in roots)
        current = current_version_dir(roots[0])
        serving = current.name if current is not None else "the fitted index"
        print(f"streaming: {sum(builds)} shard builds {builds} ({fold_ms:.1f} ms folding), "
              f"replicas share one index per shard: {shared}, {versions} versioned "
              f"snapshots on disk (shard00 now serves {serving})")

        # 4. Verify the final live set against brute force.
        live_pts = np.concatenate([points, fresh], axis=0)
        live_ids = np.arange(live_pts.shape[0])
        sample = rng.choice(live_pts.shape[0], 25, replace=False)
        ref_d, _ = brute_force_knn(live_pts, live_ids, live_pts[sample], 5)
        for row, q in enumerate(live_pts[sample]):
            t += 1e-2
            d, _ = fleet.query(q, at=t)
            assert np.allclose(d, ref_d[row])
        print("exactness: 25 sampled fleet answers match brute force over the live set")

        final = fleet.stats()
        print(f"final: {final['n_live']:.0f} live points, "
              f"{final['admission']['offered']:.0f} requests offered, "
              f"{final['admission']['shed']:.0f} shed, "
              f"fan-out {final['router']['mean_fanout']:.2f}")

        # 5. Observability: scrape the Prometheus endpoint through the
        #    strict parser, summarise the ops event log, and drop a
        #    Perfetto-loadable trace of the sampled queries.
        families = parse_prometheus_text(fleet.metrics_text())
        served = families["repro_fleet_requests_total"]
        print(f"metrics: {len(families)} families scraped and strict-parsed "
              f"(repro_fleet_requests_total={next(iter(served.samples.values())):.0f})")
        kinds = fleet.events.counts()
        print("events: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
        trace_path = Path(tmp) / "fleet_trace.json"
        fleet.tracer.write_chrome(trace_path)
        held = fleet.tracer.stats()
        print(f"tracing: sampled {held['batches_sampled']} of "
              f"{held['batches_seen']} batches — chrome trace at {trace_path.name} "
              "(load in ui.perfetto.dev)")

        # 6. Live ops surface: serve the fleet's HTTP endpoint on an
        #    ephemeral loopback port and probe health and metrics the way a
        #    Prometheus scraper or load balancer would.
        server = fleet.serve_ops()
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
            health = json.load(resp)
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
            scraped = parse_prometheus_text(resp.read().decode())
        print(f"ops surface: {server.url} — healthz {health['status']}, "
              f"{len(scraped)} families over HTTP")

        slo = fleet.slo.status()
        breached = [name for name, row in slo.items() if row["breached"]]
        breaches = sum(row["breaches"] for row in slo.values())
        print(f"slo: {len(slo)} objectives tracked, "
              f"{breaches} breach(es) this run"
              + (f" — currently breached: {', '.join(breached)}" if breached
                 else ", none currently breached"))
        fleet.close()
        print(f"shutdown: ops server closed with the fleet "
              f"({'closed' if server.closed else 'still open'})")


if __name__ == "__main__":
    main()
