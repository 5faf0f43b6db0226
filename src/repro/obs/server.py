"""HTTP ops endpoint for a running fleet — the scrapeable surface.

Everything PR 8 made inspectable by Python call becomes reachable over a
socket: ``KNNFleet.serve_ops(port=0)`` starts a stdlib
:class:`~http.server.ThreadingHTTPServer` on a background thread and the
usual ops loop works with nothing but ``curl``:

====================  =================================================
``/``                 endpoint index (JSON)
``/metrics``          Prometheus text 0.0.4 (``fleet.metrics_text()``)
``/healthz``          200 while the fleet is open, 503 after ``close()``
``/readyz``           200 only when traffic would be served *now*:
                      every shard has a live replica and the admission
                      queue is below its limit; otherwise 503 + reasons
``/events``           structured ops event ring as JSON-lines
``/traces``           sampled query traces as JSON-lines
                      (``?format=chrome`` → Perfetto/chrome JSON)
``/slo``              burn-rate engine state (ticks on read)
====================  =================================================

The server holds one reference to the fleet, and every read of serving
state (``/metrics``, ``/healthz``, ``/readyz``, ``/events``, ``/traces``,
``/slo``) runs under the fleet's one lock, so a read waits for the batch
in flight instead of reading it half done.  Handler threads are daemonic
and the listener accepts an ephemeral port (``port=0``) so tests and
examples never collide.

``python -m repro.obs.server`` runs a self-contained demo fleet under
synthetic traffic with the ops surface attached — the quickest way to
point a real Prometheus/browser at the system.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional
from urllib.parse import parse_qs, urlsplit

#: Prometheus text exposition 0.0.4 content type — scrapers check it.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ENDPOINTS = (
    "/",
    "/metrics",
    "/healthz",
    "/readyz",
    "/events",
    "/traces",
    "/slo",
)


class _FleetHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the fleet reference for handlers."""

    daemon_threads = True
    # Ops endpoints are idempotent reads; lingering CLOSE_WAIT sockets from
    # impatient scrapers must not wedge rebinds in tests.
    allow_reuse_address = True

    def __init__(self, address, handler, fleet) -> None:
        super().__init__(address, handler)
        self.fleet = fleet


class _OpsHandler(BaseHTTPRequestHandler):
    """Routes one GET to the fleet's introspection API.

    Handlers run on per-request daemon threads.  ``metrics_text()`` and
    ``closed`` take the fleet lock themselves; ``/readyz``, ``/events``,
    ``/traces`` and ``/slo`` take it around their reads.  A response is
    written after the lock is released, so a slow scraper never holds up
    the fleet.
    """

    server: _FleetHTTPServer
    protocol_version = "HTTP/1.1"

    # Ops traffic must not spam stderr of the serving process.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, obj: object) -> None:
        self._send(status, json.dumps(obj, indent=2) + "\n", "application/json")

    def _send_text(self, status: int, body: str) -> None:
        self._send(status, body, "text/plain; charset=utf-8")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urlsplit(self.path)
        query = parse_qs(split.query)
        route = {
            "/": self._index,
            "/metrics": self._metrics,
            "/healthz": self._healthz,
            "/readyz": self._readyz,
            "/events": self._events,
            "/traces": self._traces,
            "/slo": self._slo,
        }.get(split.path)
        if route is None:
            self._send_json(404, {"error": f"unknown path {split.path!r}", "endpoints": _ENDPOINTS})
            return
        try:
            route(query)
        except BrokenPipeError:
            pass  # scraper hung up mid-response
        except Exception as exc:  # surface handler bugs to the scraper
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _index(self, query) -> None:
        self._send_json(200, {"service": "repro-knn-fleet", "endpoints": _ENDPOINTS})

    def _metrics(self, query) -> None:
        self._send(200, self.server.fleet.metrics_text(), METRICS_CONTENT_TYPE)

    def _healthz(self, query) -> None:
        if self.server.fleet.closed:
            self._send_json(503, {"status": "closed"})
        else:
            self._send_json(200, {"status": "ok"})

    def _readyz(self, query) -> None:
        fleet = self.server.fleet
        with fleet._lock:
            reasons = readiness_reasons(fleet)
        if reasons:
            self._send_json(503, {"status": "not ready", "reasons": reasons})
        else:
            self._send_json(200, {"status": "ready"})

    def _events(self, query) -> None:
        fleet = self.server.fleet
        with fleet._lock:
            body = fleet.events.to_jsonl()
        self._send_text(200, body)

    def _traces(self, query) -> None:
        fmt = query.get("format", ["jsonl"])[0]
        fleet = self.server.fleet
        export = {"jsonl": fleet.tracer.export_jsonl, "chrome": fleet.tracer.export_chrome}
        if fmt not in export:
            self._send_json(400, {"error": f"unknown format {fmt!r} (jsonl|chrome)"})
            return
        with fleet._lock:
            body = export[fmt]()
        if fmt == "chrome":
            self._send_json(200, body)
        else:
            self._send_text(200, body)

    def _slo(self, query) -> None:
        fleet = self.server.fleet
        engine = getattr(fleet, "slo", None)
        if engine is None:
            self._send_json(404, {"error": "fleet has no SLO engine configured"})
            return
        with fleet._lock:
            status = engine.tick()
        self._send_json(200, status)


def readiness_reasons(fleet) -> List[str]:
    """Why the fleet would *not* serve a request arriving right now.

    Empty list ⇒ ready.  Duck-typed against the fleet's public surface so
    the obs package keeps its one-way import rule.
    """
    reasons: List[str] = []
    if fleet.closed:
        reasons.append("fleet is closed")
        return reasons
    for group in fleet.groups:
        if group.n_alive == 0:
            reasons.append(f"shard {group.shard_id} has no live replica")
    pending = fleet.n_pending
    limit = fleet.admission.policy.max_pending
    if pending >= limit:
        reasons.append(f"admission queue saturated ({pending}/{limit} pending)")
    return reasons


class OpsServer:
    """Background-thread HTTP ops server bound to one fleet.

    ``port=0`` binds an ephemeral port; read ``.port``/``.url`` after
    construction.  ``close()`` is idempotent and joins both the listener
    thread and the socket.
    """

    GUARDED_BY = {"_closed": "_lock"}

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._httpd = _FleetHTTPServer((host, port), _OpsHandler, fleet)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-ops-server:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "OpsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Standalone demo: python -m repro.obs.server
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """Run a demo fleet with the ops surface attached.

    Builds a small synthetic fleet, starts ``serve_ops`` on the requested
    port, and drives open-loop traffic for ``--duration`` seconds (0 =
    until Ctrl-C) so every endpoint has live data behind it.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--n-points", type=int, default=4000)
    parser.add_argument("--n-shards", type=int, default=4)
    parser.add_argument("--n-replicas", type=int, default=2)
    parser.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="seconds of synthetic traffic to serve (0 = run until Ctrl-C)",
    )
    args = parser.parse_args(argv)

    # Serving-stack imports stay inside main() so the module keeps the
    # obs -> fleet one-way import rule at import time.
    import time

    import numpy as np

    from repro.fleet import KNNFleet

    rng = np.random.default_rng(7)
    data = rng.normal(size=(args.n_points, 8))
    fleet = KNNFleet.build(
        data, n_shards=args.n_shards, n_replicas=args.n_replicas
    )
    server = fleet.serve_ops(host=args.host, port=args.port)
    # flush so a parent process piping stdout sees the URL immediately
    print(f"ops surface listening on {server.url}", flush=True)
    for endpoint in _ENDPOINTS[1:]:
        print(f"  {server.url}{endpoint}", flush=True)
    deadline = None if args.duration <= 0 else time.monotonic() + args.duration
    served = 0
    try:
        while deadline is None or time.monotonic() < deadline:
            fleet.submit(rng.normal(size=8), at=served * 1e-3)
            served += 1
            if served % 64 == 0:
                fleet.drain(at=served * 1e-3)
                time.sleep(0.01)
    except KeyboardInterrupt:
        pass
    finally:
        fleet.drain(at=(served + 1) * 1e-3)
        print(f"served {served} synthetic queries; shutting down")
        fleet.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
