"""Fleet observability plane: metrics scrape, span trees, events, identity.

The acceptance bar of the observability plane:

* ``KNNFleet.metrics_text()`` round-trips the strict Prometheus parser
  and agrees with the fleet's own stats;
* a sampled micro-batch produces a span tree covering admission →
  router → owner/scatter phases → shard calls → replica attempts
  (retries included) → merges, and exports in Chrome trace-event form;
* answers are byte-identical with observability fully on vs fully off,
  with replica failures in the mix;
* every operational moment (death, heal, rebuild, cache
  full-clear, admission reject/shed) lands in the event log.
"""

import json
import sys
import threading
import urllib.request

import numpy as np
import pytest

from repro.fleet.admission import AdmissionPolicy
from repro.fleet.fleet import KNNFleet
from repro.kdtree.build import build_kdtree
from repro.kdtree.tree import KDTreeConfig
from repro.obs import EventLog, ManualClock, Tracer, parse_prometheus_text
from repro.service.backends import LocalTreeBackend
from repro.service.queue import MicroBatchPolicy
from repro.service.service import KNNService, RebuildPolicy


def _points(n=400, dims=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dims))


def _drive(fleet, n=40, k=None, seed=1):
    rng = np.random.default_rng(seed)
    ids = [
        fleet.submit(rng.normal(size=fleet._dims), k=k, at=i * 1e-3)
        for i in range(n)
    ]
    fleet.flush()
    return ids


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_metrics_text_round_trips_strict_parser():
    with KNNFleet.build(_points(), n_shards=3, n_replicas=2) as fleet:
        _drive(fleet)
        families = parse_prometheus_text(fleet.metrics_text())
        for name in (
            "repro_fleet_requests_total",
            "repro_fleet_request_latency_seconds",
            "repro_fleet_batch_size",
            "repro_admission_requests_total",
            "repro_router_queries_total",
            "repro_dispatch_calls_total",
            "repro_shard_live_points",
            "repro_replica_alive",
            "repro_service_rebuilds_total",
            "repro_ops_events_total",
            "repro_trace_batches_total",
        ):
            assert name in families, f"missing family {name}"
        # The scrape agrees with the fleet's own ledgers.
        requests = families["repro_fleet_requests_total"].samples[
            ("repro_fleet_requests_total", ())
        ]
        assert requests == float(fleet.records.n_total)
        alive = [
            v
            for (name, _), v in families["repro_replica_alive"].samples.items()
        ]
        assert alive == [1.0] * 6  # 3 shards x 2 replicas
        dispatch = fleet.stats()["dispatch"]
        assert families["repro_dispatch_submitted_total"].samples == {
            ("repro_dispatch_submitted_total", ()): dispatch["submitted"]
        }
        assert families["repro_dispatch_calls_total"].samples == {
            ("repro_dispatch_calls_total", (("outcome", "completed"),)): dispatch["completed"],
            ("repro_dispatch_calls_total", (("outcome", "failed"),)): dispatch["failed"],
        }


def test_metrics_scrape_repeats_cleanly():
    with KNNFleet.build(_points(), n_shards=2) as fleet:
        _drive(fleet, n=10)
        first = fleet.metrics_text()
        second = fleet.metrics_text()
        assert parse_prometheus_text(first).keys() == parse_prometheus_text(second).keys()


@pytest.fixture(scope="module")
def mixed_scrape():
    """A 2 x 2 fleet after submits, drains, inserts, deletes, a rebuild, a
    kill and a heal: its scrape, its ``stats()`` and the fleet itself."""
    rng = np.random.default_rng(5)
    tracer = Tracer(enabled=True, sample_every=3)
    with KNNFleet.build(_points(), n_shards=2, n_replicas=2, tracer=tracer) as fleet:

        def traffic(n, t0):
            for i in range(n):
                fleet.submit(rng.normal(size=3), at=t0 + i * 1e-3)
            fleet.drain()

        traffic(30, 0.0)
        fleet.insert(rng.normal(size=(6, 3)))
        fleet.delete([1, 2, 3, 250])
        traffic(20, 0.1)
        fleet.rebuild()
        fleet.delete([4])
        fleet.kill_replica(1, 0)
        traffic(20, 0.2)
        fleet.heal()
        traffic(10, 0.3)
        families = parse_prometheus_text(fleet.metrics_text())
        yield families, fleet.stats(), fleet


def _samples(families, family, *labels, suffix=""):
    """One family's samples named ``family + suffix``, keyed by the values
    of ``labels`` (a bare value when no label is named)."""
    out = {
        tuple(dict(sample_labels)[label] for label in labels): value
        for (sample, sample_labels), value in families[family].samples.items()
        if sample == family + suffix
    }
    return out if labels else out[()]


def _per_shard(stats, key):
    return {(str(row["shard"]),): float(row[key]) for row in stats["shards"]}


def _by_key(mapping, keys=None):
    return {(key,): float(mapping[key]) for key in (keys or mapping)}


_LATENCY = "repro_fleet_request_latency_seconds"

# Fleet families against the ledgers they are read from: a case returns
# the scraped value and its source in ``stats()``, ``records`` or the
# fleet.  No quantile, mean-latency or QPS family is exported; the latency
# histogram's sum and count give the mean.
_RECONCILED = {
    "requests_total=records": lambda f, stats, fleet: (
        _samples(f, "repro_fleet_requests_total"),
        float(fleet.records.n_total),
    ),
    "requests_total=latency_count": lambda f, stats, fleet: (
        _samples(f, "repro_fleet_requests_total"),
        _samples(f, _LATENCY, suffix="_count"),
    ),
    "latency_sum/count=mean_latency_s": lambda f, stats, fleet: (
        _samples(f, _LATENCY, suffix="_sum") / _samples(f, _LATENCY, suffix="_count"),
        pytest.approx(stats["mean_latency_s"], rel=1e-9),
    ),
    "batch_size_sum=n_requests": lambda f, stats, fleet: (
        _samples(f, "repro_fleet_batch_size", suffix="_sum"),
        stats["n_requests"],
    ),
    "pending_requests": lambda f, stats, fleet: (
        _samples(f, "repro_fleet_pending_requests"),
        float(fleet.n_pending),
    ),
    "live_points": lambda f, stats, fleet: (
        _samples(f, "repro_fleet_live_points"),
        stats["n_live"],
    ),
    "admission_requests_total": lambda f, stats, fleet: (
        _samples(f, "repro_admission_requests_total", "verdict"),
        _by_key(stats["admission"], ("admitted", "rejected", "shed")),
    ),
    "admission_max_queue_depth": lambda f, stats, fleet: (
        _samples(f, "repro_admission_max_queue_depth"),
        stats["admission"]["max_queue_depth"],
    ),
    "router_queries_total": lambda f, stats, fleet: (
        _samples(f, "repro_router_queries_total"),
        stats["router"]["queries"],
    ),
    "router_shard_visits_total": lambda f, stats, fleet: (
        _samples(f, "repro_router_shard_visits_total"),
        stats["router"]["shard_visits"],
    ),
    "router_owner_only_total": lambda f, stats, fleet: (
        _samples(f, "repro_router_owner_only_total"),
        stats["router"]["owner_only"],
    ),
    "router_broadcast_queries_total": lambda f, stats, fleet: (
        _samples(f, "repro_router_broadcast_queries_total"),
        stats["router"]["broadcasts"],
    ),
    "router_mean_fanout": lambda f, stats, fleet: (
        _samples(f, "repro_router_mean_fanout"),
        stats["router"]["mean_fanout"],
    ),
    "router_phase_seconds_total": lambda f, stats, fleet: (
        _samples(f, "repro_router_phase_seconds_total", "phase"),
        {
            ("owner",): stats["router"]["owner_seconds"],
            ("scatter",): stats["router"]["scatter_seconds"],
        },
    ),
    "dispatch_submitted_total": lambda f, stats, fleet: (
        _samples(f, "repro_dispatch_submitted_total"),
        stats["dispatch"]["submitted"],
    ),
    "dispatch_calls_total": lambda f, stats, fleet: (
        _samples(f, "repro_dispatch_calls_total", "outcome"),
        _by_key(stats["dispatch"], ("completed", "failed")),
    ),
    "shard_live_points": lambda f, stats, fleet: (
        _samples(f, "repro_shard_live_points", "shard"),
        _per_shard(stats, "n_live"),
    ),
    "shard_replicas_alive": lambda f, stats, fleet: (
        _samples(f, "repro_shard_replicas_alive", "shard"),
        _per_shard(stats, "replicas_alive"),
    ),
    "replica_deaths_total": lambda f, stats, fleet: (
        _samples(f, "repro_replica_deaths_total", "shard"),
        _per_shard(stats, "deaths"),
    ),
    "replica_retries_total": lambda f, stats, fleet: (
        _samples(f, "repro_replica_retries_total", "shard"),
        _per_shard(stats, "retries"),
    ),
    "service_rebuilds_total": lambda f, stats, fleet: (
        _samples(f, "repro_service_rebuilds_total", "shard"),
        _per_shard(stats, "rebuilds"),
    ),
    "service_version=rebuilds": lambda f, stats, fleet: (
        _samples(f, "repro_service_version", "shard"),
        _per_shard(stats, "rebuilds"),
    ),
    "replica_alive": lambda f, stats, fleet: (
        _samples(f, "repro_replica_alive", "shard", "replica"),
        {
            (str(group.shard_id), str(replica.replica_id)): float(replica.alive)
            for group in fleet.groups
            for replica in group.replicas
        },
    ),
    "replica_queries_served_total": lambda f, stats, fleet: (
        _samples(f, "repro_replica_queries_served_total", "shard", "replica"),
        {
            (str(group.shard_id), str(replica.replica_id)): float(replica.queries_served)
            for group in fleet.groups
            for replica in group.replicas
        },
    ),
    "ops_events_total": lambda f, stats, fleet: (
        _samples(f, "repro_ops_events_total", "kind"),
        _by_key(fleet.events.counts()),
    ),
    "slo_breaches_total": lambda f, stats, fleet: (
        _samples(f, "repro_slo_breaches_total", "slo"),
        {(name,): float(row["breaches"]) for name, row in stats["slo"].items()},
    ),
    "slo_breached": lambda f, stats, fleet: (
        _samples(f, "repro_slo_breached", "slo"),
        {(name,): float(row["breached"]) for name, row in stats["slo"].items()},
    ),
    "slo_burn_rate": lambda f, stats, fleet: (
        _samples(f, "repro_slo_burn_rate", "slo", "window_s"),
        {
            (name, f"{window['window_s']:g}"): float(window["burn_rate"] or 0.0)
            for name, row in stats["slo"].items()
            for window in row["windows"]
        },
    ),
    "trace_batches_total": lambda f, stats, fleet: (
        _samples(f, "repro_trace_batches_total", "outcome"),
        {
            ("seen",): float(fleet.tracer.stats()["batches_seen"]),
            ("sampled",): float(fleet.tracer.stats()["batches_sampled"]),
        },
    ),
    "slo_objective": lambda f, stats, fleet: (
        _samples(f, "repro_slo_objective", "slo"),
        {(name,): row["objective"] for name, row in stats["slo"].items()},
    ),
}


@pytest.mark.parametrize("case", sorted(_RECONCILED))
def test_fleet_families_reconcile_with_their_sources(mixed_scrape, case):
    scraped, source = _RECONCILED[case](*mixed_scrape)
    assert scraped == source


def _call_during_a_batch(fleet, call):
    """Hold a batch of 8 shard-0 queries inside the shard backend on a
    drain thread, run ``call()`` from a second thread, and release the
    batch after 0.3 s.  Returns whether the call was still waiting when the
    batch was released, and what the call returned."""
    backend = fleet.groups[0].service.backend
    entered, release = threading.Event(), threading.Event()
    kneighbors = backend.kneighbors

    def blocking_kneighbors(queries, k):
        entered.set()
        release.wait(10.0)
        return kneighbors(queries, k)

    backend.kneighbors = blocking_kneighbors
    for query in backend.all_points()[0][:8]:  # all owned by shard 0
        fleet.submit(query, at=0.0)
    assert fleet.n_pending == 8
    drainer = threading.Thread(target=fleet.drain)
    drainer.start()
    assert entered.wait(10.0), "the batch never reached the shard backend"
    returned = []
    caller = threading.Thread(target=lambda: returned.append(call()))
    caller.start()
    caller.join(0.3)
    blocked = caller.is_alive()
    release.set()
    drainer.join(10.0)
    caller.join(10.0)
    assert not drainer.is_alive() and not caller.is_alive()
    backend.kneighbors = kneighbors
    assert len(returned) == 1, "the call raised"
    return blocked, returned[0]


def test_a_scrape_waits_for_the_batch_in_flight():
    """A scrape from another thread reads the fleet before or after a
    batch, never halfway through one: both go through the fleet's lock."""
    policy = MicroBatchPolicy(max_batch=64, min_batch=64)
    with KNNFleet.build(_points(), n_shards=2, batch_policy=policy) as fleet:
        blocked, scraped = _call_during_a_batch(fleet, fleet.metrics_text)
        assert blocked, "scrape read the fleet mid-batch"
        samples = parse_prometheus_text(scraped)["repro_fleet_requests_total"].samples
        assert samples[("repro_fleet_requests_total", ())] == 8.0


def _http_text(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode()


def _http_get(url):
    status, body = _http_text(url)
    return status, json.loads(body)


# Each entry point: a call made from a second thread while a batch is in
# flight, and a check on what it returned (and on the fleet afterwards).
_ENTRY_POINTS = {
    "stats": (
        lambda fleet, url: fleet.stats(),
        lambda fleet, out: out["n_requests"] == 8.0,
    ),
    "closed": (
        lambda fleet, url: fleet.closed,
        lambda fleet, out: out is False,
    ),
    "submit": (
        lambda fleet, url: fleet.submit(np.zeros(3), at=0.0),
        lambda fleet, out: out == 8 and fleet.n_pending == 1,
    ),
    "insert": (
        lambda fleet, url: fleet.insert(np.ones((2, 3))),
        lambda fleet, out: out.tolist() == [400, 401] and fleet.n_live == 402,
    ),
    "delete": (
        lambda fleet, url: fleet.delete([3]),
        lambda fleet, out: fleet.n_live == 399,
    ),
    "rebuild": (
        lambda fleet, url: fleet.rebuild(),
        lambda fleet, out: all(group.rebuilds == 1 for group in fleet.groups),
    ),
    "kill_replica": (
        lambda fleet, url: fleet.kill_replica(1, 0),
        lambda fleet, out: fleet.groups[1].n_alive == 1,
    ),
    "heal": (
        lambda fleet, url: (fleet.kill_replica(1, 0), fleet.heal())[1],
        lambda fleet, out: out == 1 and fleet.groups[1].n_alive == 2,
    ),
    "close": (
        lambda fleet, url: fleet.close(),
        lambda fleet, out: fleet.closed and fleet.records.n_total == 8,
    ),
    "/readyz": (
        lambda fleet, url: _http_get(url + "/readyz"),
        lambda fleet, out: out == (200, {"status": "ready"}),
    ),
    "/slo": (
        lambda fleet, url: _http_get(url + "/slo"),
        lambda fleet, out: out[0] == 200 and "latency" in out[1],
    ),
    "/events": (
        lambda fleet, url: _http_text(url + "/events"),
        lambda fleet, out: out == (200, fleet.events.to_jsonl()),
    ),
    "/traces": (
        lambda fleet, url: _http_get(url + "/traces?format=chrome"),
        lambda fleet, out: out == (200, fleet.tracer.export_chrome()),
    ),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_every_entry_point_waits_for_the_batch_in_flight(name):
    """Every public entry point that reads or changes serving state, the
    ops server's included, waits for a batch in flight on another thread:
    the fleet's one lock is held from submit to drain's last merge."""
    call, check = _ENTRY_POINTS[name]
    policy = MicroBatchPolicy(max_batch=64, min_batch=64)
    fleet = KNNFleet.build(_points(), n_shards=2, n_replicas=2, batch_policy=policy)
    with fleet:
        url = fleet.serve_ops().url
        blocked, out = _call_during_a_batch(fleet, lambda: call(fleet, url))
        assert blocked, f"{name} ran while a batch was in flight"
        assert check(fleet, out), out


def test_scrapes_racing_traffic_see_whole_batches():
    """Scrapers racing a traffic thread, with the interpreter switching
    threads every 10 us: no scrape raises, and every scrape counts the same
    requests in the request counter and in the batch-size histogram, which
    one batch completion moves together."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with KNNFleet.build(_points(), n_shards=2, n_replicas=2) as fleet:
            stop = threading.Event()

            def traffic():
                rng = np.random.default_rng(1)
                t = 0.0
                while not stop.is_set():
                    for _ in range(16):
                        t += 1e-4
                        fleet.submit(rng.normal(size=3), at=t)
                    fleet.drain(at=t)

            errors, torn = [], []

            def scrape():
                while not stop.is_set():
                    try:
                        families = parse_prometheus_text(fleet.metrics_text())
                    except Exception as exc:  # the race shows up as any error
                        errors.append(repr(exc))
                        continue
                    requests = families["repro_fleet_requests_total"].samples[
                        ("repro_fleet_requests_total", ())
                    ]
                    batched = families["repro_fleet_batch_size"].samples[
                        ("repro_fleet_batch_size_sum", ())
                    ]
                    if requests != batched:
                        torn.append((requests, batched))

            workers = [threading.Thread(target=traffic)]
            workers += [threading.Thread(target=scrape) for _ in range(2)]
            for worker in workers:
                worker.start()
            stop.wait(0.5)
            stop.set()
            for worker in workers:
                worker.join(10.0)
            assert not any(worker.is_alive() for worker in workers)
            assert fleet.records.n_total > 0
            assert not errors, errors[:3]
            assert not torn, torn[:3]
    finally:
        sys.setswitchinterval(switch)


def test_latency_histogram_observes_every_request():
    with KNNFleet.build(_points(), n_shards=2) as fleet:
        _drive(fleet, n=25)
        families = parse_prometheus_text(fleet.metrics_text())
        count = families["repro_fleet_request_latency_seconds"].samples[
            ("repro_fleet_request_latency_seconds_count", ())
        ]
        assert count == 25.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_span_tree_covers_every_stage():
    tracer = Tracer(enabled=True, sample_every=1)
    fleet = KNNFleet.build(
        _points(),
        n_shards=3,
        n_replicas=2,
        tracer=tracer,
    )
    try:
        for shard in range(3):  # the first attempt on every shard dies
            fleet.arm_replica_failure(shard, 0)
        # k of 60 over ~133-point shards forces scatter beyond the owner.
        _drive(fleet, n=30, k=60)
        traces = tracer.traces()
        assert traces, "REPRO_OBS-independent explicit tracer sampled nothing"
        cats = {span.cat for record in traces for span in record.root.walk()}
        assert {
            "batch",
            "admission",
            "router",
            "phase",
            "shard_call",
            "replica_attempt",
            "merge",
        } <= cats, f"incomplete coverage: {sorted(cats)}"
        names = {span.name for record in traces for span in record.root.walk()}
        assert "owner_phase" in names
        assert "scatter_phase" in names
        assert any(n.startswith("replica_attempt") for n in names)
        # A retry is a sibling: some shard_call holds a dead attempt and
        # the peer's answer.
        attempts = [
            [c.meta["ok"] for c in span.children if c.cat == "replica_attempt"]
            for record in traces
            for span in record.root.walk()
            if span.cat == "shard_call"
        ]
        assert all(a[-1] is True for a in attempts)
        assert [False, True] in attempts, "armed failures produced no retried attempt spans"
    finally:
        fleet.close()


def test_chrome_export_loads_as_trace_events():
    tracer = Tracer(enabled=True, sample_every=1)
    with KNNFleet.build(_points(), n_shards=2, tracer=tracer) as fleet:
        _drive(fleet, n=8)
        doc = json.loads(json.dumps(tracer.export_chrome()))
        assert doc["traceEvents"], "no trace events exported"
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        jsonl = tracer.export_jsonl()
        assert all(json.loads(line) for line in jsonl.strip().splitlines())


def test_tracer_sampling_period_respected():
    tracer = Tracer(enabled=True, sample_every=4)
    with KNNFleet.build(_points(), n_shards=2, tracer=tracer) as fleet:
        for i in range(12):
            fleet.query(np.zeros(3), at=float(i))
        stats = tracer.stats()
        assert stats["batches_seen"] >= 12
        assert stats["batches_sampled"] == -(-stats["batches_seen"] // 4)


def test_tracing_off_is_free_of_traces():
    with KNNFleet.build(_points(), n_shards=2) as fleet:  # REPRO_OBS unset/off
        _drive(fleet, n=8)
        if not fleet.tracer.enabled:
            assert fleet.tracer.traces() == []


# ----------------------------------------------------------------------
# Byte identity: observability on vs off, failures in the mix
# ----------------------------------------------------------------------


def _run_with_failures(tracer):
    fleet = KNNFleet.build(
        _points(seed=5),
        n_shards=3,
        n_replicas=2,
        tracer=tracer,
    )
    try:
        rng = np.random.default_rng(9)
        fleet.arm_replica_failure(0, 0)
        ids = [fleet.submit(rng.normal(size=3), k=40, at=i * 1e-3) for i in range(30)]
        fleet.kill_replica(2, 1)
        ids += [
            fleet.submit(rng.normal(size=3), k=40, at=0.03 + i * 1e-3) for i in range(30)
        ]
        fleet.flush()
        return [fleet.result(r) for r in ids]
    finally:
        fleet.close()


def test_results_byte_identical_with_observability_on_and_off():
    plain = _run_with_failures(Tracer(enabled=False))
    traced = _run_with_failures(Tracer(enabled=True, sample_every=1))
    assert len(plain) == len(traced)
    for (d_p, i_p), (d_t, i_t) in zip(plain, traced):
        assert np.array_equal(d_p, d_t)
        assert np.array_equal(i_p, i_t)


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------


def test_death_and_heal_events_scoped_per_shard():
    with KNNFleet.build(_points(), n_shards=2, n_replicas=2) as fleet:
        _drive(fleet, n=5)
        fleet.kill_replica(1, 0)
        fleet.heal()
        deaths = fleet.events.snapshot("replica_death")
        heals = fleet.events.snapshot("replica_heal")
        assert len(deaths) == 1 and len(heals) == 1
        assert dict(deaths[0].fields)["shard"] == 1
        assert dict(deaths[0].fields)["replica"] == 0
        assert dict(deaths[0].fields)["injected"] is True
        assert dict(heals[0].fields)["replica"] == 0


def test_admission_reject_and_shed_events():
    for mode, kind in (("reject", "admission_reject"), ("shed", "admission_shed")):
        with KNNFleet.build(
            _points(),
            n_shards=2,
            admission_policy=AdmissionPolicy(max_pending=4, mode=mode),
            batch_policy=None,
        ) as fleet:
            rng = np.random.default_rng(3)
            for i in range(20):
                fleet.submit(rng.normal(size=3), at=i * 1e-9)
            events = fleet.events.snapshot(kind)
            assert events, f"no {kind} events under mode={mode}"
            assert "request_id" in dict(events[0].fields)


def test_rebuild_and_cache_clear_events_foreground_service():
    events = EventLog(clock=ManualClock())
    backend = LocalTreeBackend.fit(_points(n=64), ids=np.arange(64))
    service = KNNService(backend, k=3, cache_capacity=16, events=events)
    # Warm the cache so the rebuild's full clear has entries to report.
    service.query(np.zeros(3), at=0.0)
    service.query(np.zeros(3), at=1.0)
    service.rebuild(at=2.0)
    kinds = events.counts()
    assert kinds.get("rebuild") == 1
    assert kinds.get("cache_full_clear") == 1
    rebuild = dict(events.snapshot("rebuild")[0].fields)
    assert rebuild["points"] == 64 and rebuild["version"] == 1
    assert rebuild["fold_s"] >= 0.0 and rebuild["snapshot_s"] == 0.0  # no snapshot_root
    clear = events.snapshot("cache_full_clear")[0]
    assert dict(clear.fields)["entries"] >= 1


def test_rebuild_event_reports_the_folds_structural_edits():
    # 64 grid points, bucket 4: every leaf holds 4 points.
    xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
    points = np.column_stack([xs.ravel(), ys.ravel()])
    backend = LocalTreeBackend(build_kdtree(points, config=KDTreeConfig(bucket_size=4)))
    events = EventLog(clock=ManualClock())
    service = KNNService(backend, k=3, events=events)
    tree = backend.tree
    leaf = int(tree.leaf_nodes()[0])
    s, c = int(tree.start[leaf]), int(tree.count[leaf])
    # Ten points inside one leaf's cell overflow it: one graft.
    weights = np.random.default_rng(0).dirichlet(np.ones(c), size=10)
    service.insert(weights @ tree.points[s : s + c], at=1.0)
    service.rebuild(at=2.0)
    # Deleting a whole leaf of the fresh tree collapses its parent.
    tree = service.backend.tree
    leaf = int(tree.leaf_nodes()[-1])
    s, c = int(tree.start[leaf]), int(tree.count[leaf])
    service.delete(tree.ids[s : s + c], at=3.0)
    service.rebuild(at=4.0)
    grafted, collapsed = (
        [dict(e.fields)[name] for e in events.snapshot("rebuild")]
        for name in ("grafted_leaves", "collapsed_nodes")
    )
    assert grafted == [1, 0]
    assert collapsed == [0, 1]


def test_rebuild_events_through_fleet():
    with KNNFleet.build(
        _points(),
        n_shards=2,
        rebuild_policy=RebuildPolicy(max_inserts=4),
    ) as fleet:
        rng = np.random.default_rng(11)
        t = 0.0
        for _ in range(8):
            t += 1e-3
            fleet.insert(rng.normal(size=(4, 3)), at=t)
            t += 1e-3
            fleet.query(rng.normal(size=3), at=t)
        rebuilds = fleet.events.snapshot("rebuild")
        assert len(rebuilds) == sum(g.rebuilds for g in fleet.groups) >= 1
        fields = dict(rebuilds[0].fields)
        # A rebuild is the shard's: its one service folds for every replica.
        assert "shard" in fields and "replica" not in fields
        assert {"points", "version", "fold_s", "snapshot_s"} <= set(fields)


def test_one_rebuild_event_per_shard_build(tmp_path):
    # A shard's one service folds and snapshots once per build, however
    # many replicas serve it.
    with KNNFleet.build(
        _points(),
        n_shards=2,
        n_replicas=3,
        rebuild_policy=RebuildPolicy(max_inserts=4),
        snapshot_root=tmp_path,
        service_time=lambda n: 1.0,
    ) as fleet:
        rng = np.random.default_rng(5)
        for step in range(6):
            fleet.insert(rng.normal(size=(8, 3)), at=10.0 * step)
        events = [dict(e.fields) for e in fleet.events.snapshot("rebuild")]
        for group in fleet.groups:
            mine = [e for e in events if e["shard"] == group.shard_id]
            assert len(mine) == group.rebuilds > 0
            assert not any("replica" in e for e in mine)
            assert [e["version"] for e in mine] == list(range(1, len(mine) + 1))
            assert all(e["fold_s"] > 0.0 and e["snapshot_s"] > 0.0 for e in mine)
            assert all(e["grafted_leaves"] >= 0 and e["collapsed_nodes"] >= 0 for e in mine)


def test_ops_events_exported_in_metrics():
    with KNNFleet.build(_points(), n_shards=2, n_replicas=2) as fleet:
        fleet.kill_replica(0, 1)
        fleet.heal()
        families = parse_prometheus_text(fleet.metrics_text())
        ops = families["repro_ops_events_total"].samples
        by_kind = {dict(labels)["kind"]: v for (_, labels), v in ops.items()}
        assert by_kind.get("replica_death") == 1.0
        assert by_kind.get("replica_heal") == 1.0


# ----------------------------------------------------------------------
# Clock injection
# ----------------------------------------------------------------------


def test_manual_clock_threads_through_fleet():
    clock = ManualClock()
    with KNNFleet.build(_points(), n_shards=2, clock=clock) as fleet:
        assert fleet._clock is clock
        assert fleet.router._clock is clock
        for group in fleet.groups:
            assert group._clock is clock
            for replica in group.replicas:
                assert replica.service._clock is clock
        _drive(fleet, n=4)
        # Events stamped off the same frozen clock read 0.0.
        fleet.kill_replica(0, 0)
        assert fleet.events.snapshot("replica_death")[0].at == 0.0


def test_service_obs_snapshot_keys():
    backend = LocalTreeBackend.fit(_points(n=32), ids=np.arange(32))
    service = KNNService(backend, k=3, cache_capacity=8)
    service.query(np.zeros(3), at=0.0)
    snap = service.obs_snapshot()
    expected = {
        "pending", "version", "rebuilds", "rebuild_seconds",
        "n_live", "delta_inserts", "tombstones", "cache_hits", "cache_misses",
        "cache_evictions", "cache_full_clears", "cache_keys_dropped", "cache_size",
    }
    assert expected <= set(snap)
    assert snap["n_live"] == 32.0
