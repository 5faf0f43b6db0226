"""Self-test of the end-to-end benchmark (collected by the tier-1 command).

Runs every workload at smoke size (all counts divided by 20), untraced and
traced, in this process, and checks the harness itself: every declared name
is emitted, counts repeat exactly for one seed, a corrupted answer fails the
run, the untraced path stays on the stable surface, and the virtual-time
driver charges latency the way it says it does.
"""

from __future__ import annotations

import ast
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import compare
import run
from e2e_driver import fastest, open_loop, tail
from e2e_spec import CARRIER, WORKLOADS, measures
from e2e_verify import wrong_rows

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def _restore_environment():
    """``run`` scrubs ``REPRO_*`` for good; other test modules keep theirs."""
    saved = dict(os.environ)
    os.environ["REPRO_E2E_SELFTEST"] = "must be scrubbed"
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e_out")


@pytest.fixture(scope="module")
def untraced(out_dir) -> dict:
    # Two repeats each: enough to exercise the medians, cheap enough for tier 1.
    return {name: run.run_workload(name, seconds=0.2, smoke=True, out_dir=out_dir) for name in NAMES}


@pytest.fixture(scope="module")
def traced(out_dir) -> dict:
    return {name: run.run_workload(name, smoke=True, traced=True, out_dir=out_dir) for name in NAMES}


# ----------------------------------------------------------------------
# BENCHMARK.json and the runs agree
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_package():
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert set(NAMES) == set(WORKLOADS)
    declared = {m["name"] for m in BENCH["end_to_end"]}
    assert len(declared) == 12
    for carriers in CARRIER.values():
        assert set(carriers) <= declared
    # Every name is measured somewhere; the issue's four families stay apart.
    assert all(any(measures(w, name) for w in NAMES) for name in declared)
    assert [w for w in NAMES if measures(w, "query_per_s")] == ["batch_3d", "batch_10d"]
    assert [w for w in NAMES if measures(w, "capacity_qps")] == ["service_hotkey", "fleet_uniform"]
    assert [w for w in NAMES if measures(w, "write_mean_ms")] == ["fleet_stream"]


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_name_is_emitted(untraced, name):
    result = untraced[name]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for metric, declared in zip(result["metrics"].values(), BENCH["end_to_end"]):
        assert metric["unit"] == declared["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    line = json.loads(run.last_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert name in run.report(result)


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_name_is_emitted(traced, out_dir, name):
    result = traced[name]
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # At this commit every entry point exists, so every layer time is measured
    # (a self time is a difference of two measured times and may dip below 0).
    for declared in BENCH["per_layer"]:
        if declared["unit"] in ("s", "us") or "self" in declared["name"]:
            assert result["metrics"][declared["name"]]["value"] != 0, declared["name"]
    spans = [json.loads(line) for line in (out_dir / f"trace_{name}.jsonl").read_text().splitlines()]
    assert spans and all(
        {"name", "layer", "start", "end", "parent", "batch_id"} <= set(s) for s in spans
    )
    assert all(s["end"] >= s["start"] for s in spans)


def test_counts_repeat_exactly_for_one_seed(traced, out_dir):
    exact = (
        "kdtree.dist_per_q", "core.remote_fraction", "router.mean_fanout",
        "service.cache_hit_rate", "cluster.bytes_sent", "fleet.batches",
    )
    for name in ("service_hotkey", "fleet_uniform"):
        again = run.run_workload(name, smoke=True, traced=True, out_dir=out_dir)
        for metric in exact:
            assert again["metrics"][metric]["value"] == traced[name]["metrics"][metric]["value"], (
                name, metric,
            )
    assert traced["service_hotkey"]["metrics"]["service.cache_hit_rate"]["value"] > 0
    assert traced["fleet_uniform"]["metrics"]["fleet.batches"]["value"] > 0


# ----------------------------------------------------------------------
# Verification is live
# ----------------------------------------------------------------------
def test_a_corrupted_answer_fails_the_run(monkeypatch, out_dir, capsys):
    import e2e_workloads

    honest = e2e_workloads._ask

    def corrupt(door, queries):
        distances, ids = honest(door, queries)
        distances = distances.copy()
        distances[3, 0] *= 1.0 + 1e-6
        return distances, ids

    monkeypatch.setattr(e2e_workloads, "_ask", corrupt)
    monkeypatch.setattr(run, "OUT", out_dir)
    assert run.main(["--workload", "fleet_uniform", "--smoke"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_wrong_rows_catches_distance_and_identity_errors():
    rng = np.random.default_rng(0)
    points = rng.random((500, 3))
    ids = np.arange(500, dtype=np.int64) * 7
    queries = rng.random((6, 3))
    d = np.linalg.norm(points[None] - queries[:, None], axis=2)
    order = np.argsort(d, axis=1)[:, :4]
    good_d, good_i = np.take_along_axis(d, order, axis=1), ids[order]
    assert not wrong_rows(points, ids, queries, good_d, good_i, 4).any()

    bad_d = good_d.copy()
    bad_d[1, 2] *= 1.0 + 1e-7
    far = good_i.copy()
    far[2, 0] = ids[np.argmax(d[2])]  # a live id, but not at the reported distance
    ghost = good_i.copy()
    ghost[4, 1] = 3  # no such id
    assert wrong_rows(points, ids, queries, bad_d, good_i, 4).tolist() == [0, 1, 0, 0, 0, 0]
    assert wrong_rows(points, ids, queries, good_d, far, 4).tolist() == [0, 0, 1, 0, 0, 0]
    assert wrong_rows(points, ids, queries, good_d, ghost, 4).tolist() == [0, 0, 0, 0, 1, 0]


# ----------------------------------------------------------------------
# The untraced run stays on the stable surface
# ----------------------------------------------------------------------
STABLE_SURFACE = {
    ("repro.kdtree", "build_kdtree"), ("repro.kdtree", "batch_knn"),
    ("repro.core", "PandaKNN"),
    ("repro.service", "KNNService"), ("repro.service", "LocalTreeBackend"),
    ("repro.fleet", "KNNFleet"),
}
UNTRACED_MODULES = ("run.py", "e2e_workloads.py", "e2e_driver.py", "e2e_load.py",
                    "e2e_verify.py", "e2e_spec.py", "compare.py", "calibrate.py")


def test_untraced_run_imports_only_the_stable_surface(untraced):
    for filename in UNTRACED_MODULES:
        tree = ast.parse((HERE / filename).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "repro" for a in node.names), filename
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    assert (node.module, alias.name) in STABLE_SURFACE, (filename, alias.name)
    assert not [key for key in os.environ if key.startswith("REPRO_")]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_reads_its_own_records(untraced, tmp_path, capsys):
    record = tmp_path / "a.jsonl"
    record.write_text(
        "".join(json.dumps({k: v for k, v in r.items() if k != "detail"}) + "\n"
                for r in untraced.values())
    )
    assert compare.main([str(record), str(record)]) == 0
    rows = capsys.readouterr().out
    measured = sum(measures(w, m["name"]) for w in NAMES for m in BENCH["end_to_end"])
    assert rows.count("within-bound") == measured == 29

    slower = {name: json.loads(json.dumps({k: v for k, v in r.items() if k != "detail"}))
              for name, r in untraced.items()}
    slower["batch_3d"]["metrics"]["query_per_s"]["value"] *= 0.5
    slower["fleet_stream"]["failed"] = 1
    worse = tmp_path / "b.jsonl"
    worse.write_text("".join(json.dumps(r) + "\n" for r in slower.values()))
    assert compare.main([str(record), str(worse)]) == 1
    rows = capsys.readouterr().out
    assert "worse" in rows and "LARGER FAILED SHARE" in rows


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "within-bound"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.10) == "better"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [30.0, 40.0, 35.0, 50.0], "lower", 0.10) == "better"


# ----------------------------------------------------------------------
# The virtual-time driver, on a stub front door with scripted call durations
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Refused(KeyError):
    pass


class StubDoor:
    """Queues requests, dispatches when ``batch`` are pending; each call
    takes the next scripted duration on the fake clock."""

    def __init__(self, clock, costs, batch=1, hits=(), lost=()):
        self.clock, self.costs, self.batch = clock, list(costs), batch
        self.hits, self.lost = set(hits), set(lost)
        self.pending, self.answered, self.next_id = [], set(), 0
        self.seen_at = []

    def _spend(self):
        self.clock.now += self.costs.pop(0)

    @property
    def n_pending(self):
        return len(self.pending)

    def submit(self, query, at=None):
        self._spend()
        self.seen_at.append(at)
        request_id, self.next_id = self.next_id, self.next_id + 1
        if request_id in self.hits:
            self.answered.add(request_id)
        elif request_id not in self.lost:
            self.pending.append(request_id)
            if len(self.pending) >= self.batch:
                self.answered.update(self.pending)
                self.pending = []
        return request_id

    def insert(self, points, ids, at=None):
        self._spend()
        self.answered.update(self.pending)
        self.pending = []

    def drain(self, at=None):
        self._spend()
        self.answered.update(self.pending)
        self.pending = []

    def result(self, request_id):
        if request_id in self.lost:
            raise Refused(request_id)
        if request_id not in self.answered:
            raise KeyError(request_id)
        return request_id


def _drive(costs, due, **door):
    clock = FakeClock()
    stub = StubDoor(clock, costs, **door)
    queries = np.zeros((len(due), 3))
    return open_loop(stub, queries, np.asarray(due, dtype=float), 0.0, clock=clock), stub


def test_latency_is_charged_from_the_due_time():
    result, stub = _drive([0.5, 0.5, 0.5, 0.0], [0.0, 1.0, 2.0])
    assert result.latency.tolist() == [0.5, 0.5, 0.5]
    assert result.late.tolist() == [0.0, 0.0, 0.0]
    assert stub.seen_at[:3] == [0.0, 1.0, 2.0]  # the door sees due times, not wall time
    assert result.end == 2.5 and result.busy == 1.5


def test_a_stall_is_charged_to_every_request_behind_it():
    result, _ = _drive([0.1, 3.0, 0.1, 0.1, 0.0], [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(result.latency, [0.1, 3.0, 2.1, 1.2])
    np.testing.assert_allclose(result.late, [0.0, 0.0, 2.0, 1.1])  # generator lateness
    assert result.unresolved == 0


def test_fifo_resolution_is_read_off_n_pending():
    # Batches of three: the third call resolves requests 0..2 together, the
    # drain resolves the remainder.
    result, _ = _drive([0.1] * 5 + [0.2], [0.0, 0.0, 0.0, 0.0, 0.0], batch=3)
    np.testing.assert_allclose(result.latency, [0.3, 0.3, 0.3, 0.7, 0.7])
    assert result.resolved.tolist() == [0, 0, 3, 0, 0, 2]


def test_a_cache_hit_is_resolved_out_of_turn():
    # Request 1 is answered at once (a hit) while request 0 is still queued.
    result, _ = _drive([0.1, 0.1, 0.1, 1.0], [0.0, 0.0, 0.0], batch=9, hits={1})
    np.testing.assert_allclose(result.latency, [1.3, 0.2, 1.3])


def test_a_synchronous_write_completes_with_its_call_and_flushes_reads():
    clock = FakeClock()
    stub = StubDoor(clock, [0.1, 0.4, 0.0], batch=9)
    ops = [np.zeros(3), ("insert", np.zeros((2, 3)), np.arange(2))]
    result = open_loop(stub, ops, np.array([0.0, 1.0]), 0.0, clock=clock)
    np.testing.assert_allclose(result.latency, [1.4, 0.4])


def test_a_request_the_door_never_resolves_is_counted():
    result, _ = _drive([0.1, 0.1, 0.1, 0.0], [0.0, 1.0, 2.0], lost={1})
    assert result.unresolved == 1


def test_fastest_is_the_least_reading_and_skips_missing_ones():
    assert fastest([0.3, float("nan"), 0.2]) == 0.2


def test_tail_keeps_ten_samples_beyond_the_percentile():
    assert tail(np.arange(2000.0))[1] == 99.0
    value, used = tail(np.arange(100.0))
    assert used == 90.0 and value == pytest.approx(89.1)
