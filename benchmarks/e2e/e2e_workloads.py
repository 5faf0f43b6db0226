"""The five workloads, driven through the stable front doors only.

This module imports nothing from ``repro`` beyond ``PandaKNN``, ``KNNService``,
``LocalTreeBackend`` and ``KNNFleet``, calls only their documented front-door
methods, and passes no tuning argument that is not in ``e2e_spec.WORKLOADS``
(every policy runs at its default).  A later change may delete any optional
tier of the program and this file still runs.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import PandaKNN
from repro.fleet import KNNFleet
from repro.service import KNNService, LocalTreeBackend

import e2e_load as load
from e2e_driver import fastest, median, open_loop, tail
from e2e_spec import K, VERIFY_SAMPLES
from e2e_verify import brute_force, wrong_rows

#: Scheduled seconds between the last request of a phase and the next phase.
PHASE_GAP_S = 0.1
#: How often a batch workload sets up (the serving ones set up once per repeat).
SETUP_REPEATS = 3

clock = time.perf_counter


@dataclass
class Outcome:
    """One workload run: native end-to-end readings, op ledger, and detail."""

    metrics: dict
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_setup() -> None:
    """Close a set-up with a full collection.

    A process that has just built an index collects that heap two or three
    times in its next thousand requests, 20-50 ms each: the cost of being
    new, not of serving, and enough to decide a p99 on its own.
    """
    gc.collect()


def _sample_rows(seed: int, n: int) -> np.ndarray:
    return load.stream(seed, load.SAMPLE).choice(n, size=min(VERIFY_SAMPLES, n), replace=False)


# ----------------------------------------------------------------------
# batch_3d, batch_10d: build, one big query set, snapshot round trip
# ----------------------------------------------------------------------
def run_batch(spec: dict, seed: int, reps: int, scratch: Path, inspect=None) -> Outcome:
    mixture = load.Mixture(spec["dims"])
    n_points, n_queries = spec["n_points"], spec["n_queries"]
    # Building is itself measured here, so set-up is only the generation and
    # the oracle for the checked sample; it is one call deep, so it is made
    # three times over to have a least disturbed one to report.
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        points = mixture.draw(load.stream(seed, load.POINTS), n_points)
        queries = mixture.draw(load.stream(seed, load.QUERIES), n_queries)
        sample = _sample_rows(seed, n_queries)
        want = brute_force(points, queries[sample], K)
        end_setup()
        setup_s.append(clock() - t0)

    fit_s, query_s = [], []
    index = None
    for _ in range(reps):
        if index is not None:
            index.close()
        t0 = clock()
        index = PandaKNN(n_ranks=spec["n_ranks"]).fit(points)
        fit_s.append(clock() - t0)
        t0 = clock()
        got_d, got_i = index.kneighbors(queries, k=K)
        query_s.append(clock() - t0)

    # After the last timed phase: the answers of the timed call, and the same
    # sample asked again of an index that went through snapshot and restore.
    ids = np.arange(n_points, dtype=np.int64)
    bad = wrong_rows(points, ids, queries[sample], got_d[sample], got_i[sample], K, want)
    t0 = clock()
    index.snapshot(scratch / "snapshot")
    snapshot_s = clock() - t0
    t0 = clock()
    restored = PandaKNN.restore(scratch / "snapshot")
    restore_s = clock() - t0
    again_d, again_i = restored.kneighbors(queries[sample], k=K)
    bad_restored = wrong_rows(points, ids, queries[sample], again_d, again_i, K, want)
    if inspect is not None:
        inspect(index, points, queries)
    restored.close()
    index.close()

    return Outcome(
        metrics={
            "setup_s": fastest(setup_s),
            "build_pts_per_s": n_points / fastest(fit_s),
            "query_per_s": n_queries / fastest(query_s),
            "batch_ms": 1e3 * fastest(query_s),
        },
        attempted=reps * (1 + n_queries) + 2 + sample.size,
        failed=int(bad.sum() + bad_restored.sum()),
        detail={
            "reps": reps, "snapshot_s": snapshot_s, "restore_s": restore_s,
            "verified": int(2 * sample.size),
        },
    )


# ----------------------------------------------------------------------
# service_hotkey, fleet_uniform: low / high / burst on one timeline
# ----------------------------------------------------------------------
def _build_door(spec: dict, points: np.ndarray, snapshot_root=None):
    if spec["kind"] == "service":
        return KNNService(LocalTreeBackend.fit(points), k=K)
    return KNNFleet.build(
        points, n_shards=spec["n_shards"], n_replicas=spec["n_replicas"], k=K,
        **({} if snapshot_root is None else {"snapshot_root": snapshot_root}),
    )


def _ask(door, queries: np.ndarray):
    """Interactive answers, one ``query`` call per row (the checked path)."""
    answers = [door.query(q) for q in queries]
    return np.stack([d for d, _ in answers]), np.stack([i for _, i in answers])


def run_serving(spec: dict, seed: int, reps: int, scratch: Path, inspect=None) -> Outcome:
    mixture = load.Mixture(spec["dims"])
    n_points = spec["n_points"]
    setup_s, build_s = [], []
    phases: dict = {name: [] for name, _, _ in spec["phases"]}
    door = None
    for rep in range(reps):
        if door is not None:
            door.close()
        t0 = clock()
        points = mixture.draw(load.stream(seed, load.POINTS), n_points)
        rng_q = load.stream(seed, load.QUERIES, rep)
        rng_t = load.stream(seed, load.SCHEDULE, rep)
        if spec["kind"] == "service":
            # A fixed universe four times the cache, asked with Zipf weights.
            universe = mixture.draw(load.stream(seed, load.QUERIES), spec["universe"])
            traffic = [
                universe[load.zipf_rows(rng_q, n, spec["universe"], spec["zipf_s"])]
                for _, n, _ in spec["phases"]
            ]
        else:
            traffic = [
                load.jittered(rng_q, points, n, spec["jitter"]) for _, n, _ in spec["phases"]
            ]
        t1 = clock()
        door = _build_door(spec, points)
        build_s.append(clock() - t1)
        end_setup()
        setup_s.append(clock() - t0)

        free = last_due = 0.0
        for (name, n, rate), queries in zip(spec["phases"], traffic):
            start = last_due + PHASE_GAP_S
            due = np.full(n, start) if rate is None else load.poisson_due(rng_t, n, rate, start)
            result = open_loop(door, queries, due, free)
            phases[name].append(result)
            free, last_due = result.end, float(due[-1])

    # Checked after the last timed phase, through the same front door.
    rng_s = load.stream(seed, load.SAMPLE)
    if spec["kind"] == "service":
        sample = universe[rng_s.choice(spec["universe"], size=min(VERIFY_SAMPLES, spec["universe"]),
                                       replace=False)]
    else:
        sample = load.jittered(rng_s, points, VERIFY_SAMPLES, spec["jitter"])
    got_d, got_i = _ask(door, sample)
    bad = wrong_rows(points, np.arange(n_points, dtype=np.int64), sample, got_d, got_i, K)
    if inspect is not None:
        inspect(door, points, traffic)
    door.close()

    low_tails = [tail(r.latency) for r in phases["low"]]
    n_requests = sum(n for _, n, _ in spec["phases"])
    unresolved = sum(r.unresolved for results in phases.values() for r in results)
    return Outcome(
        metrics={
            "setup_s": fastest(setup_s),
            "build_pts_per_s": n_points / fastest(build_s),
            "low_p50_ms": 1e3 * fastest([median(r.latency) for r in phases["low"]]),
            "low_p99_ms": 1e3 * fastest([value for value, _ in low_tails]),
            "high_p50_ms": 1e3 * fastest([median(r.latency) for r in phases["high"]]),
            "capacity_qps": 1.0 / fastest([r.busy / r.latency.size for r in phases["burst"]]),
        },
        attempted=reps * n_requests + sample.shape[0],
        failed=int(unresolved + bad.sum()),
        detail={
            "reps": reps, "low_samples": int(phases["low"][0].latency.size),
            "low_tail_percentile": low_tails[0][1], "verified": int(sample.shape[0]),
            **{
                f"generator_late_p99_ms.{name}": 1e3 * tail(np.concatenate([r.late for r in results]))[0]
                for name, results in phases.items()
            },
            "phases": phases,
        },
    )


# ----------------------------------------------------------------------
# fleet_stream: reads beside inserts and deletes, rebuilds and snapshots
# ----------------------------------------------------------------------
def _stream_script(spec: dict, seed: int, repeat: int, points: np.ndarray, n_ops: int):
    """``(ops, kinds, due, deleted rows, inserted points, inserted ids)``."""
    rng = load.stream(seed, load.OPS, repeat)
    kinds = load.op_kinds(n_ops, spec["op_mix"])
    # The order of the ops and their arrival times are part of the workload,
    # the same for every seed and repeat; the seed draws the data.
    due = load.poisson_due(load.shape_stream(n_ops), n_ops, spec["rate"], PHASE_GAP_S)
    n_points = points.shape[0]
    victims = rng.permutation(n_points)  # never-before-deleted initial ids, in order
    n_deleted, next_id = 0, n_points
    ops, new_points, new_ids = [], [], []
    for kind in kinds:
        if kind == load.READ:
            ops.append(load.jittered(rng, points, 1, spec["jitter"])[0])
        elif kind == load.INSERT:
            fresh = load.jittered(rng, points, spec["insert_size"], spec["jitter"])
            fresh_ids = np.arange(next_id, next_id + spec["insert_size"], dtype=np.int64)
            next_id += spec["insert_size"]
            new_points.append(fresh)
            new_ids.append(fresh_ids)
            ops.append(("insert", fresh, fresh_ids))
        else:
            doomed = victims[n_deleted : n_deleted + spec["delete_size"]]
            n_deleted += doomed.size
            ops.append(("delete", doomed.astype(np.int64)))
    return ops, kinds, due, victims[:n_deleted], np.concatenate(new_points), np.concatenate(new_ids)


def run_stream(spec: dict, seed: int, reps: int, scratch: Path, inspect=None) -> Outcome:
    mixture = load.Mixture(spec["dims"])
    n_points, n_ops = spec["n_points"], spec["n_ops"]

    # The first stream of a process ran 25-30% slower than the second in
    # sizing runs, so a short one on a throwaway fleet comes first.
    t0 = clock()
    points = mixture.draw(load.stream(seed, load.POINTS), n_points)
    t1 = clock()
    warm = _build_door(spec, points, scratch / "warmup")
    build_s = [clock() - t1]
    ops, _, due, *_ = _stream_script(spec, seed, reps, points, spec["warmup_ops"])
    open_loop(warm, ops, due, 0.0)
    warm.close()
    warmup_s = clock() - t0

    setup_s, runs = [], []
    door = None
    for rep in range(reps):
        if door is not None:
            door.close()
        t0 = clock()
        points = mixture.draw(load.stream(seed, load.POINTS), n_points)
        ops, kinds, due, deleted, new_points, new_ids = _stream_script(spec, seed, rep, points, n_ops)
        t1 = clock()
        door = _build_door(spec, points, scratch / f"snapshots{rep}")
        build_s.append(clock() - t1)
        end_setup()
        setup_s.append(clock() - t0)
        runs.append((open_loop(door, ops, due, 0.0), kinds))

    alive = np.ones(n_points, dtype=bool)
    alive[deleted] = False
    live_points = np.concatenate([points[alive], new_points])
    live_ids = np.concatenate([np.flatnonzero(alive), new_ids])
    sample = load.jittered(load.stream(seed, load.SAMPLE), points, VERIFY_SAMPLES, spec["jitter"])
    got_d, got_i = _ask(door, sample)
    bad = wrong_rows(live_points, live_ids, sample, got_d, got_i, K)
    if inspect is not None:
        inspect(door, points, scratch / f"snapshots{reps - 1}")
    door.close()

    reads = [r.latency[k == load.READ] for r, k in runs]
    writes = [r.latency[k != load.READ] for r, k in runs]
    read_p99, read_pct = tail(np.concatenate(reads))
    unresolved = sum(r.unresolved for r, _ in runs)
    return Outcome(
        metrics={
            "setup_s": fastest(setup_s) + warmup_s,
            "build_pts_per_s": n_points / fastest(build_s),
            "read_p50_ms": 1e3 * fastest([median(latency) for latency in reads]),
            "read_p99_ms": 1e3 * read_p99,
            "write_mean_ms": 1e3 * fastest([float(latency.mean()) for latency in writes]),
            "stream_ops_per_s": n_ops / fastest([r.busy for r, _ in runs]),
        },
        attempted=reps * n_ops + sample.shape[0],
        failed=int(unresolved + bad.sum()),
        detail={
            "reps": reps, "warmup_s": warmup_s,
            "reads": sum(latency.size for latency in reads), "read_tail_percentile": read_pct,
            "writes": sum(latency.size for latency in writes),
            "verified": int(sample.shape[0]),
            "generator_late_p99_ms": 1e3 * tail(np.concatenate([r.late for r, _ in runs]))[0],
        },
    )


RUNNERS = {"batch": run_batch, "service": run_serving, "fleet": run_serving, "stream": run_stream}
