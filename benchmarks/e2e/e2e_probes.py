"""The traced run: an outside-in ledger of where each layer's time goes.

End-to-end numbers are always taken from the untraced run.  This module is
the separate traced run behind ``--trace 1``.  It first plays the workload
once, untraced, and reads the counts only that traffic can produce (hit
rate, batches per phase, rebuilds, snapshot files) off the front door's
public statistics.  Then it builds one instance of every front door over the
workload's own points and measures each layer from outside by *peeling*: the
same batches go through successively deeper public entry points, each call
wrapped in a span, and a layer's self time is its span minus its child's.

    fleet    submit..drain > router.answer > groups[s].answer per owner shard
             > replica.service.answer_batch > batch_knn(service.backend.tree)
    service  submit..drain > answer_batch > batch_knn
    batch    fit        -> distribute_block, build_global_tree, build_local_trees
             kneighbors -> DistributedQueryEngine.query beside batch_knn on each
                           rank's local tree with that rank's own queries

``.b1`` is a single-query batch (the low-rate regime), ``.bN`` a full batch
of 256 as a burst dispatches it.  Every workload's traced run reports every
layer, measured on that workload's data, so a layer the workload itself never
enters still reads as what it would cost there; a count only the workload's
own traffic defines is 0 elsewhere.  Spans are kept in memory and written to
``out/trace_<workload>.jsonl`` at the end.  The module reaches one attribute
level into public objects (``fleet.router``, ``index.cluster``, ...); an entry
point a later change removed costs its metrics, with a warning, not the run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import e2e_load as load
from e2e_driver import median, open_loop, tail
from e2e_spec import K
from e2e_workloads import RUNNERS, end_setup

clock = time.perf_counter

BATCH = 256
MICRO_CALLS = 2_000


class Tracer:
    """In-memory span recorder (name, layer, start, end, parent, batch_id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []
        self.origin = clock()

    @contextmanager
    def span(self, name: str, layer: str, batch_id=None):
        record = {
            "id": len(self.spans), "name": name, "layer": layer, "batch_id": batch_id,
            "parent": self._open[-1] if self._open else None, "start": clock(), "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._open.pop()

    def timed(self, name: str, layer: str, fn, *args, batch_id=None, **kwargs):
        """``(fn(*args, **kwargs), seconds)`` with the call wrapped in a span."""
        with self.span(name, layer, batch_id) as record:
            out = fn(*args, **kwargs)
        return out, record["end"] - record["start"]

    def write(self, path: Path) -> None:
        with path.open("w") as sink:
            for record in self.spans:
                row = dict(record, start=record["start"] - self.origin,
                           end=record["end"] - self.origin)
                sink.write(json.dumps(row) + "\n")


def _guarded(values: dict, group: str, probe, *args) -> None:
    """Run one probe group; a removed entry point costs only its metrics."""
    try:
        values.update(probe(*args))
    except (AttributeError, ImportError, TypeError, KeyError) as error:
        print(f"warning: {group} probes skipped: {type(error).__name__}: {error}", file=sys.stderr)


def _ms(seconds) -> float:
    return 1e3 * median(seconds)


# ----------------------------------------------------------------------
# Peeling
# ----------------------------------------------------------------------
def _peel(tracer: Tracer, tag: str, batches: list, at_step: float, start_at: float, front, levels):
    """Time ``batches`` through ``front`` untraced and traced, then through
    each deeper level; returns ``(untraced, [level0, level1, ...], next at)``.

    Even batches are the untraced pass and odd ones go through every traced
    level, so that a front door with a result cache sees each query once; the
    two front-door passes alternate, so that a disturbance of the machine
    falls on both.  All passes keep one ``at=`` schedule: consecutive batches
    are stamped ``at_step`` apart, like the run they stand for.  The last
    batch goes first, untimed: it moves the door's arrival-rate estimate, and
    with it the batch size it dispatches at, into the regime being measured.
    """
    at = start_at
    front(batches[-1], at)
    at += at_step
    untraced, front_s, used = [], [], []
    for plain, spanned in zip(batches[0:-1:2], batches[1:-1:2]):
        t0 = clock()
        front(plain, at)
        untraced.append(clock() - t0)
        at += at_step
        batch_id = f"{tag}:{len(spanned)}:{len(used)}"
        front_s.append(tracer.timed(f"{tag}.front", tag, front, spanned, at, batch_id=batch_id)[1])
        used.append(spanned)
        at += at_step
    traced = [np.array(front_s)]
    for name, layer, call in levels:
        at += 1.0
        seconds = []
        for i, batch in enumerate(used):
            seconds.append(
                tracer.timed(name, layer, call, batch, at, batch_id=f"{tag}:{len(batch)}:{i}")[1]
            )
            at += at_step
        traced.append(np.array(seconds))
    return np.array(untraced), traced, at + 1.0


def _self_times(levels: list) -> list:
    """Per-batch self time of every level (the deepest level keeps its own)."""
    return [levels[i] - levels[i + 1] for i in range(len(levels) - 1)] + [levels[-1]]


def _attribution(untraced: np.ndarray, levels: list) -> tuple:
    """``(attributed fraction, trace overhead share)`` of one peel.

    A level whose self time comes out negative over all its batches (a deeper
    replay that ran slower than the call enclosing it) is not allowed to
    cancel against the others, so a replay that does not stand for the run it
    replays pushes the fraction above 1.  Single batches may dip below zero:
    that is the box's noise, and clipping each of them biased the fraction
    upwards by 0.05-0.15.
    """
    attributed = sum(max(float(s.sum()), 0.0) for s in _self_times(levels))
    return attributed / float(untraced.sum()), float(levels[0].sum() / untraced.sum()) - 1.0


def _batches(queries: np.ndarray, size: int) -> list:
    return [queries[lo : lo + size] for lo in range(0, queries.shape[0] - size + 1, size)]


# ----------------------------------------------------------------------
# kdtree, core, cluster (the batch path)
# ----------------------------------------------------------------------
def _probe_batch_path(tracer, points, big, rng, n_single, n_full, n_ranks, scratch) -> dict:
    from repro.core import DistributedQueryEngine, PandaKNN, build_global_tree, build_local_trees
    from repro.kdtree import batch_knn, build_kdtree

    t0 = clock()
    index = PandaKNN(n_ranks=n_ranks).fit(points)
    fit_s = clock() - t0
    t0 = clock()
    index.kneighbors(big, k=K)
    query_s = clock() - t0
    _, snapshot_s = tracer.timed("core.snapshot", "core", index.snapshot, scratch / "ledger_index")
    restored, restore_s = tracer.timed("core.restore", "core", PandaKNN.restore, scratch / "ledger_index")
    restored.close()
    index.close()

    staged = PandaKNN(n_ranks=n_ranks)
    cluster = staged.cluster
    with tracer.span("fit (staged)", "bench") as fit_span:
        _, distribute_s = tracer.timed("cluster.distribute_block", "cluster", cluster.distribute_block, points)
        tree, global_s = tracer.timed("core.build_global_tree", "core", build_global_tree, cluster, staged.config)
        trees, local_s = tracer.timed("core.build_local_trees", "core", build_local_trees, cluster, staged.config)
    after_fit = cluster.metrics.grand_total()
    engine = DistributedQueryEngine(cluster, tree, staged.config)
    report, engine_s = tracer.timed("core.engine.query", "core", engine.query, big, k=K)
    total = cluster.metrics.grand_total()

    # The local searches the engine's owner step performs, from outside.
    stats, local_knn_s = None, 0.0
    for rank, local in enumerate(trees):
        mine = big[report.owners == rank]
        if mine.shape[0]:
            (_, _, rank_stats), elapsed = tracer.timed(
                "kdtree.batch_knn", "kdtree", batch_knn, local, mine, K, batch_id=f"rank{rank}"
            )
            local_knn_s += elapsed
            if stats is None:
                stats = rank_stats
            else:
                stats.merge(rank_stats)

    # One rank's slab, rebuilt and asked what that rank is asked: queries that
    # fall in its own region (here, beside its own points).
    slab = trees[0].points
    rebuilt, build_s = tracer.timed("kdtree.build_kdtree", "kdtree", build_kdtree, slab)
    b1 = [tracer.timed("kdtree.batch_knn", "kdtree", batch_knn, rebuilt, q, K, batch_id="b1")[1]
          for q in _batches(load.jittered(rng, slab, n_single, 1e-3), 1)]
    bn = [tracer.timed("kdtree.batch_knn", "kdtree", batch_knn, rebuilt, q, K, batch_id="bN")[1]
          for q in _batches(load.jittered(rng, slab, n_full * BATCH, 1e-3), BATCH)]
    path, save_s = tracer.timed("kdtree.save", "kdtree", rebuilt.save, scratch / "ledger_tree")
    _, load_s = tracer.timed("kdtree.load", "kdtree", type(rebuilt).load, path)
    staged.close()

    n_big = big.shape[0]
    staged_s = fit_span["end"] - fit_span["start"] + engine_s
    return {
        "kdtree.build_s": build_s,
        "kdtree.query_ms.b1": _ms(b1),
        "kdtree.query_ms.bN": _ms(bn),
        "kdtree.query_us_per_q": 1e6 * local_knn_s / n_big,
        "kdtree.nodes_per_q": stats.nodes_visited / stats.queries,
        "kdtree.leaves_per_q": stats.leaves_scanned / stats.queries,
        "kdtree.dist_per_q": stats.distance_computations / stats.queries,
        "kdtree.heap_updates_per_q": stats.heap_updates / stats.queries,
        "kdtree.max_depth": rebuilt.stats.max_depth,
        "kdtree.save_s": save_s,
        "kdtree.load_s": load_s,
        "kdtree.snapshot_bytes": Path(path).stat().st_size,
        "core.global_tree_s": global_s,
        "core.local_trees_s": local_s,
        "core.engine_query_s": engine_s,
        "core.engine_self_share": (engine_s - local_knn_s) / engine_s,
        "core.remote_fraction": report.fraction_sent_remote,
        "core.mean_remote_fanout": report.mean_remote_fanout,
        "core.mean_remote_neighbors": report.mean_remote_neighbors,
        "core.snapshot_s": snapshot_s,
        "core.restore_s": restore_s,
        "cluster.distribute_s": distribute_s,
        "cluster.bytes_sent": total.bytes_sent,
        "cluster.messages": total.messages_sent,
        "cluster.load_imbalance": cluster.load_imbalance(),
        "_batch.attributed": staged_s / (fit_s + query_s),
        "_batch.overhead": staged_s / (fit_s + query_s) - 1.0,
        "_batch.fit_bytes_sent": after_fit.bytes_sent,
    }


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def _probe_service(tracer, points, singles, fulls, extra) -> dict:
    from repro.kdtree import batch_knn
    from repro.service import KNNService, LocalTreeBackend

    service = KNNService(LocalTreeBackend.fit(points), k=K)
    end_setup()

    def front(batch, at):
        for query in batch:
            service.submit(query, at=at)
        service.drain(at=at)

    levels = [
        ("service.answer_batch", "service", lambda batch, at: service.answer_batch(batch, k=K, at=at)),
        ("kdtree.batch_knn", "kdtree", lambda batch, at: batch_knn(service.backend.tree, batch, K)),
    ]
    un1, peel1, at = _peel(tracer, "service", singles, 5e-3, 1.0, front, levels)
    # The single queries of the traced pass were just answered and cached.
    hits = singles[1:-1:2]
    t0 = clock()
    for _ in range(10):
        for query in hits:
            service.submit(query[0], at=at)
    hit_us = 1e6 * (clock() - t0) / (10 * len(hits))
    unn, peeln, at = _peel(tracer, "service", fulls, 0.0, at + 1.0, front, levels)
    self1, selfn = _self_times(peel1), _self_times(peeln)
    attributed, overhead = _attribution(
        np.concatenate([un1, unn]), [np.concatenate(pair) for pair in zip(peel1, peeln)]
    )

    # Reads beside writes: the same 64 queries, clean and then with 512
    # buffered inserts and 128 tombstones in front of the tree.
    probe = fulls[0][:64]
    clean = [tracer.timed("service.answer_batch", "service", service.answer_batch, probe, k=K,
                          batch_id="clean")[1] for _ in range(3)]
    fresh_ids = np.arange(points.shape[0], points.shape[0] + extra.shape[0], dtype=np.int64)
    inserts = [
        tracer.timed("service.insert", "service", service.insert, extra[lo : lo + 16],
                     fresh_ids[lo : lo + 16])[1]
        for lo in range(0, extra.shape[0], 16)
    ]
    deletes = [
        tracer.timed("service.delete", "service", service.delete,
                     np.arange(lo, lo + 16, dtype=np.int64))[1]
        for lo in range(0, 128, 16)
    ]
    dirty = [tracer.timed("service.answer_batch", "service", service.answer_batch, probe, k=K,
                          batch_id="dirty")[1] for _ in range(3)]
    _, rebuild_s = tracer.timed("service.rebuild", "service", service.rebuild)
    service.close()
    return {
        "service.self_ms.b1": _ms(self1[1]),
        "service.self_ms.bN": _ms(selfn[1]),
        "service.queue_self_ms.bN": _ms(selfn[0]),
        "service.submit_hit_us": hit_us,
        "service.read_penalty": median(dirty) / median(clean),
        "service.insert_call_ms": _ms(inserts),
        "service.delete_call_ms": _ms(deletes),
        "service.rebuild_s": rebuild_s,
        "_service.attributed": attributed,
        "_service.overhead": overhead,
    }


# ----------------------------------------------------------------------
# fleet, router, planner, replica, dispatch, admission, obs
# ----------------------------------------------------------------------
def _probe_fleet(tracer, points, big, singles, fulls, n_shards, n_replicas, scratch) -> dict:
    from repro.fleet import KNNFleet, ShardCall, ShardPlanner
    from repro.kdtree import batch_knn

    fleet, build_s = tracer.timed(
        "fleet.build", "fleet", KNNFleet.build, points, n_shards=n_shards,
        n_replicas=n_replicas, k=K, snapshot_root=scratch / "ledger_fleet",
    )
    _, plan_s = tracer.timed("planner.plan", "planner", ShardPlanner(n_shards).plan, points)
    owners, owner_s = tracer.timed("planner.owner_of", "planner", fleet.plan.owner_of, big)
    end_setup()

    def front(batch, at):
        for query in batch:
            fleet.submit(query, at=at)
        fleet.drain(at=at)

    def per_owner(call):
        def level(batch, at):
            owner = fleet.plan.owner_of(batch)
            for shard in np.unique(owner):
                call(int(shard), batch[owner == shard], at)
        return level

    def service_of(shard):
        return fleet.groups[shard].replicas[0].service

    levels = [
        ("router.answer", "router", lambda batch, at: fleet.router.answer(batch, K, at=at)),
        ("replica.group.answer", "replica",
         per_owner(lambda shard, rows, at: fleet.groups[shard].answer(rows, K, at=at))),
        ("service.answer_batch", "service",
         per_owner(lambda shard, rows, at: service_of(shard).answer_batch(rows, k=K, at=at))),
        ("kdtree.batch_knn", "kdtree",
         per_owner(lambda shard, rows, at: batch_knn(service_of(shard).backend.tree, rows, K))),
    ]
    # How late the open-loop generator runs against this door, at a rate it
    # keeps up with and at one it does not.
    pool = np.concatenate(singles)
    late, at = {}, 1.0
    for phase, rate in (("low", 100.0), ("high", 3_000.0)):
        due = load.poisson_due(load.stream(0, load.LEDGER), pool.shape[0], rate, at)
        late[phase] = 1e3 * tail(open_loop(fleet, pool, due, at).late)[0]
        at = float(due[-1]) + 1.0
    un1, peel1, at = _peel(tracer, "fleet", singles, 1e-2, at, front, levels)
    calls_before = fleet.stats()["dispatch"]["submitted"]
    unn, peeln, at = _peel(tracer, "fleet", fulls, 0.0, at + 1.0, front, levels)
    # Front-door and router passes each sent the batches through the dispatcher.
    calls_per_batch = (fleet.stats()["dispatch"]["submitted"] - calls_before) / (
        len(unn) + 2 * len(peeln[0])
    )
    self1, selfn = _self_times(peel1), _self_times(peeln)
    attributed, overhead = _attribution(
        np.concatenate([un1, unn]), [np.concatenate(pair) for pair in zip(peel1, peeln)]
    )

    router = fleet.stats()["router"]
    noop = ShardCall(0, lambda: None)
    t0 = clock()
    for _ in range(MICRO_CALLS):
        fleet.dispatcher.submit(noop)
    submit_us = 1e6 * (clock() - t0) / MICRO_CALLS
    t0 = clock()
    for _ in range(MICRO_CALLS):
        fleet.admission.on_submit(0)
    admit_us = 1e6 * (clock() - t0) / MICRO_CALLS
    text, text_s = tracer.timed("obs.metrics_text", "obs", fleet.metrics_text)
    _, stats_s = tracer.timed("obs.stats", "obs", fleet.stats)
    fleet.close()
    return {
        "fleet.build_s": build_s,
        "fleet.front_self_ms.b1": _ms(self1[0]),
        "fleet.front_self_ms.bN": _ms(selfn[0]),
        "router.self_ms.b1": _ms(self1[1]),
        "router.self_ms.bN": _ms(selfn[1]),
        "router.mean_fanout": router["mean_fanout"],
        "router.owner_only_share": router["owner_only"] / router["queries"],
        "planner.plan_s": plan_s,
        "planner.owner_of_us_per_q": 1e6 * owner_s / owners.shape[0],
        "replica.self_ms.b1": _ms(self1[2]),
        "replica.self_ms.bN": _ms(selfn[2]),
        "dispatch.submit_us": submit_us,
        "dispatch.calls_per_batch": calls_per_batch,
        "admission.on_submit_us": admit_us,
        "obs.metrics_text_ms": 1e3 * text_s,
        "obs.stats_ms": 1e3 * stats_s,
        "obs.families": sum(line.startswith("# TYPE") for line in text.splitlines()),
        "bench.generator_late_p99_ms.low": late["low"],
        "bench.generator_late_p99_ms.high": late["high"],
        "_fleet.attributed": attributed,
        "_fleet.overhead": overhead,
    }


# ----------------------------------------------------------------------
# Counts only the workload's own traffic defines
# ----------------------------------------------------------------------
#: Zero on a workload whose traffic never produces them.
TRAFFIC_COUNTS = (
    "service.cache_hit_rate", "service.cache_evictions", "service.mean_batch_size",
    "service.rebuilds", "fleet.batches", "fleet.mean_batch_size.low",
    "fleet.mean_batch_size.high", "fleet.mean_batch_size.burst", "fleet.rejected",
    "admission.max_queue_depth", "admission.rejected",
    "io.snapshot_write_bytes", "io.snapshot_files",
)


def _tree_size(root: Path) -> tuple:
    files = [p for p in root.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _traffic_counts(kind: str, counts: dict):
    """An ``inspect`` callback for the workload runner that fills ``counts``."""

    def inspect(door, points, extra) -> None:
        counts["points"] = points
        if kind == "service":
            cache = door.cache_stats
            counts["service.cache_hit_rate"] = cache.hit_rate
            counts["service.cache_evictions"] = cache.evictions
            counts["service.mean_batch_size"] = door.latency_summary()["mean_batch_size"]
        if kind in ("fleet", "stream"):
            stats = door.stats()
            counts["fleet.rejected"] = stats["admission"]["rejected"]
            counts["admission.rejected"] = stats["admission"]["rejected"]
            counts["admission.max_queue_depth"] = stats["admission"]["max_queue_depth"]
        if kind == "stream":
            counts["service.rebuilds"] = sum(shard["rebuilds"] for shard in stats["shards"])
            size, files = _tree_size(Path(extra))
            counts["io.snapshot_write_bytes"] = size
            counts["io.snapshot_files"] = files

    return inspect


def _phase_counts(kind: str, detail: dict) -> dict:
    """Batches as the driver saw them dispatch (drops in ``n_pending``)."""
    values = {}
    if kind == "fleet":
        for phase, results in detail["phases"].items():
            sizes = np.concatenate([r.resolved[r.resolved > 0] for r in results])
            values[f"fleet.mean_batch_size.{phase}"] = float(sizes.mean())
            if phase == "burst":
                values["fleet.batches"] = int(sizes.size)
    return values


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_traced(name: str, spec: dict, seed: int, scratch: Path, out_dir: Path) -> tuple:
    """``(per-layer values, outcome of the untraced pass)`` for one workload."""
    kind = spec["kind"]
    counts: dict = {}
    outcome = RUNNERS[kind](spec, seed, 1, scratch, inspect=_traffic_counts(kind, counts))
    points = counts.pop("points")
    counts.update(_phase_counts(kind, outcome.detail))
    values = dict.fromkeys(TRAFFIC_COUNTS, 0.0)

    # The ledger's own batches, drawn like the workload's queries.
    rng = load.stream(seed, load.LEDGER)
    mixture = load.Mixture(spec["dims"])
    n_big = min(spec.get("n_queries", 40_000) // 2, points.shape[0] // 10, 20_000)
    n_single, n_full = spec["ledger_batches"]
    if kind in ("batch", "service"):
        draw = lambda n: mixture.draw(rng, n)
    else:
        draw = lambda n: load.jittered(rng, points, n, spec["jitter"])
    big = draw(n_big)
    singles = _batches(draw(2 * n_single + 1), 1)
    fulls = _batches(draw((2 * n_full + 1) * BATCH), BATCH)
    extra = load.jittered(rng, points, 512, 1e-3)

    tracer = Tracer()
    _guarded(values, "kdtree/core/cluster", _probe_batch_path, tracer, points, big,
             rng, n_single, n_full, spec.get("n_ranks", 4), scratch)
    _guarded(values, "service", _probe_service, tracer, points, singles, fulls, extra)
    _guarded(values, "fleet", _probe_fleet, tracer, points, big, singles, fulls,
             spec.get("n_shards", 4), spec.get("n_replicas", 2), scratch)

    values.update(counts)
    own = {"stream": "fleet"}.get(kind, kind)
    values["bench.attributed_fraction"] = values.get(f"_{own}.attributed")
    values["bench.trace_overhead_share"] = values.get(f"_{own}.overhead")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"trace_{name}.jsonl")
    outcome.detail["spans"] = len(tracer.spans)
    return values, outcome
