"""HTTP ops surface: endpoints, readiness flips, subprocess scrape."""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.fleet import KNNFleet
from repro.fleet.admission import AdmissionPolicy
from repro.obs.prometheus import parse_prometheus_text
from repro.obs.server import METRICS_CONTENT_TYPE, OpsServer, readiness_reasons
from repro.service import MicroBatchPolicy


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read().decode()


def _get_status(url):
    try:
        return _get(url)
    except urllib.error.HTTPError as err:
        return err.code, err.headers["Content-Type"], err.read().decode()


@pytest.fixture
def fleet():
    rng = np.random.default_rng(11)
    fleet = KNNFleet.build(rng.normal(size=(400, 3)), n_shards=2, n_replicas=2)
    for i in range(24):
        fleet.submit(rng.normal(size=3), at=i * 1e-3)
    fleet.drain()
    yield fleet
    fleet.close()


@pytest.fixture
def server(fleet):
    return fleet.serve_ops()


class TestServeOps:
    def test_binds_ephemeral_port(self, fleet, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")

    def test_serve_ops_is_idempotent(self, fleet, server):
        assert fleet.serve_ops() is server

    def test_new_server_after_explicit_close(self, fleet, server):
        server.close()
        fresh = fleet.serve_ops()
        assert fresh is not server
        assert not fresh.closed
        status, _, _ = _get(fresh.url + "/healthz")
        assert status == 200

    def test_fleet_close_tears_down_server(self, fleet, server):
        fleet.close()
        assert server.closed

    def test_server_close_idempotent(self, fleet, server):
        server.close()
        server.close()
        assert server.closed


class TestEndpoints:
    def test_index_lists_endpoints(self, server):
        status, ctype, body = _get(server.url + "/")
        assert status == 200
        assert ctype == "application/json"
        assert "/metrics" in json.loads(body)["endpoints"]

    def test_metrics_strict_parse_and_content_type(self, server):
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype == METRICS_CONTENT_TYPE
        families = parse_prometheus_text(body)
        assert "repro_fleet_requests_total" in families
        assert "repro_slo_burn_rate" in families

    def test_healthz_ok_while_open(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_503_when_fleet_closed(self):
        rng = np.random.default_rng(0)
        fleet = KNNFleet.build(rng.normal(size=(200, 3)), n_shards=2)
        # standalone server: owned by the test, not the fleet, so it
        # outlives fleet.close() and can report the closed state
        server = OpsServer(fleet)
        try:
            fleet.close()
            status, _, body = _get_status(server.url + "/healthz")
            assert status == 503
            assert json.loads(body) == {"status": "closed"}
        finally:
            server.close()

    def test_readyz_ready_with_live_replicas(self, server):
        status, _, body = _get(server.url + "/readyz")
        assert status == 200
        assert json.loads(body)["status"] == "ready"

    def test_events_jsonl(self, fleet, server):
        fleet.events.emit("test_event", detail="x")
        status, _, body = _get(server.url + "/events")
        assert status == 200
        kinds = [json.loads(line)["kind"] for line in body.splitlines() if line]
        assert "test_event" in kinds

    def test_traces_jsonl_and_chrome(self, server):
        status, _, _ = _get(server.url + "/traces")
        assert status == 200
        status, ctype, body = _get(server.url + "/traces?format=chrome")
        assert status == 200
        assert ctype == "application/json"
        assert "traceEvents" in json.loads(body)

    def test_traces_unknown_format_400(self, server):
        status, _, _ = _get_status(server.url + "/traces?format=protobuf")
        assert status == 400

    def test_slo_ticks_and_reports(self, server):
        status, _, body = _get(server.url + "/slo")
        assert status == 200
        payload = json.loads(body)
        assert set(payload) == {"latency", "availability", "replica_survival"}
        assert all("windows" in row for row in payload.values())

    def test_unknown_path_404(self, server):
        status, _, body = _get_status(server.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["endpoints"]


class TestReadinessFlips:
    def test_replica_death_flips_readyz(self):
        rng = np.random.default_rng(1)
        fleet = KNNFleet.build(rng.normal(size=(300, 3)), n_shards=2, n_replicas=1)
        server = fleet.serve_ops()
        try:
            status, _, _ = _get(server.url + "/readyz")
            assert status == 200
            for replica in fleet.groups[0].replicas:
                replica.kill()
            status, _, body = _get_status(server.url + "/readyz")
            assert status == 503
            reasons = json.loads(body)["reasons"]
            assert any("no live replica" in r for r in reasons)
            # resurrect directly: heal() needs a live peer, and this
            # group is fully dark — readiness only needs liveness back
            fleet.groups[0].replicas[0].alive = True
            status, _, _ = _get(server.url + "/readyz")
            assert status == 200
        finally:
            fleet.close()

    def test_admission_saturation_flips_readyz(self):
        rng = np.random.default_rng(2)
        fleet = KNNFleet.build(
            rng.normal(size=(300, 3)),
            n_shards=2,
            admission_policy=AdmissionPolicy(max_pending=4, mode="reject"),
            batch_policy=MicroBatchPolicy(max_batch=64, min_batch=64),
        )
        server = fleet.serve_ops()
        try:
            for i in range(8):  # queue fills to max_pending, rest reject
                fleet.submit(rng.normal(size=3), at=i * 1e-6)
            status, _, body = _get_status(server.url + "/readyz")
            assert status == 503
            reasons = json.loads(body)["reasons"]
            assert any("saturated" in r for r in reasons)
            fleet.drain()
            status, _, _ = _get(server.url + "/readyz")
            assert status == 200
        finally:
            fleet.close()

    def test_readiness_reasons_closed_fleet(self):
        rng = np.random.default_rng(3)
        fleet = KNNFleet.build(rng.normal(size=(200, 3)), n_shards=2)
        fleet.close()
        assert readiness_reasons(fleet) == ["fleet is closed"]


class TestOutOfProcess:
    def test_subprocess_server_scrapes_over_http(self, tmp_path):
        """Start `python -m repro.obs.server` and scrape it from this process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.obs.server",
                "--port",
                "0",
                "--n-points",
                "500",
                "--n-shards",
                "2",
                "--duration",
                "30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on " in line, (line, proc.stderr.read() if proc.poll() else "")
            url = line.strip().rsplit(" ", 1)[-1]
            status, ctype, body = _get(url + "/metrics")
            assert status == 200
            assert ctype == METRICS_CONTENT_TYPE
            families = parse_prometheus_text(body)
            assert "repro_fleet_requests_total" in families
            assert "repro_slo_objective" in families
            status, _, _ = _get(url + "/healthz")
            assert status == 200
        finally:
            proc.terminate()
            proc.wait(timeout=15)
