"""Stdlib HTTP endpoint for scraping a long-running engine.

``python -m repro serve`` keeps a process warm and exposes:

``/metrics``
    Prometheus text exposition (0.0.4) of the process registry —
    scrape-safe because histograms snapshot under their lock.  This is
    the fleet interface: rates, windowed quantiles and burn-rate alerts
    are the scraper's job (README "Scraping /metrics").
``/healthz``
    JSON liveness: status, uptime, and counts of served scrapes.
    When a recovery path had to run (host fallback, retry-budget
    exhaustion) the fault layer flips the process-wide degraded flag
    (:mod:`repro.obs.context`) and the status reads ``"degraded"``
    with the reason attached.
``/trace/last``
    The Chrome-trace JSON of the most recent traced query (404 until
    one ran), so a dashboard can deep-link "open last trace".
``/query-log/recent``
    The most recent query wide events (newest first) from the
    in-process ring the query log publishes to
    (:mod:`repro.obs.qlog`).
``/query/<id>``
    One query's wide event by its ``query_id`` (404 when it has
    rotated out of the ring or never ran).

:data:`ROUTES` is the dispatch table: ``do_GET`` looks the path up in
it and calls the handler it finds, and the CLI renders its help and
startup banner from the same mapping, so a documented route without a
handler cannot exist.

A :class:`~http.server.ThreadingHTTPServer` keeps a slow scraper from
blocking the next one; all state it reads (the metrics registry, the
degraded flag, the wide-event ring, the last-trace slot) is already
thread-safe or swapped atomically.  Port 0 binds an ephemeral port —
tests use this.

Layering: a pure *reader* of sibling ``obs`` modules, never the
engine — and nothing but the CLI imports this module, so only ``repro
serve`` pays for ``http.server``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, NamedTuple

from repro.obs.context import get_degraded
from repro.obs.export import prometheus_text
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.qlog import get_wide_event, recent_wide_events

__all__ = [
    "ObsServer",
    "ROUTES",
    "Route",
    "route_summary",
    "set_last_trace",
    "get_last_trace",
]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Longest /query/<id> the handler will parse: a process-monotonic id
# never needs more digits, and int() refuses very long strings.
MAX_ID_DIGITS = 18

# The most recent query's Chrome-trace document.  A plain slot guarded
# by the GIL's atomic attribute swap: writers replace the whole dict,
# readers serialize whatever reference they grabbed.
_last_trace: dict[str, Any] | None = None


def set_last_trace(doc: dict[str, Any] | None) -> None:
    global _last_trace
    _last_trace = doc


def get_last_trace() -> dict[str, Any] | None:
    return _last_trace


# (status code, content type, body)
Reply = tuple[int, str, bytes]


def _json(code: int, doc: Any) -> Reply:
    return code, "application/json", json.dumps(doc).encode()


def _metrics(srv: "ObsServer", _arg: str) -> Reply:
    return 200, PROM_CONTENT_TYPE, prometheus_text(srv.registry).encode()


def _healthz(srv: "ObsServer", _arg: str) -> Reply:
    degraded = get_degraded()
    doc = {
        "status": "degraded" if degraded else "ok",
        "uptime_s": round(time.monotonic() - srv.t0, 3),
        "scrapes": srv.n_requests,
    }
    if degraded:
        doc["degraded"] = degraded
    return _json(200, doc)


def _trace_last(_srv: "ObsServer", _arg: str) -> Reply:
    doc = get_last_trace()
    if doc is None:
        return _json(404, {"error": "no trace recorded yet"})
    return _json(200, doc)


def _query_log_recent(_srv: "ObsServer", _arg: str) -> Reply:
    return _json(200, {"events": recent_wide_events()})


def _query_by_id(_srv: "ObsServer", arg: str) -> Reply:
    # str.isdigit() alone accepts non-ASCII digits such as "²" that
    # int() rejects; the path arrives from the network, so check both.
    doc = None
    if arg.isascii() and arg.isdigit() and len(arg) <= MAX_ID_DIGITS:
        doc = get_wide_event(int(arg))
    if doc is None:
        return _json(404, {"error": "no such query id"})
    return _json(200, doc)


class Route(NamedTuple):
    description: str
    handler: Callable[["ObsServer", str], Reply]


# The dispatch table.  A path ending in ``/<id>`` matches any single
# trailing segment, which the handler receives as its argument.
ROUTES: dict[str, Route] = {
    "/metrics": Route("Prometheus text exposition (0.0.4)", _metrics),
    "/healthz": Route(
        "liveness JSON; degraded reason when a recovery ran", _healthz
    ),
    "/trace/last": Route(
        "Chrome trace of the most recent traced query", _trace_last
    ),
    "/query-log/recent": Route(
        "recent query wide events, newest first", _query_log_recent
    ),
    "/query/<id>": Route("one query's wide event by id", _query_by_id),
}


def route_summary() -> str:
    """Space-joined route paths, for banners and help strings."""
    return " ".join(ROUTES)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        srv: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        path = self.path.partition("?")[0].rstrip("/") or "/"
        route, arg = ROUTES.get(path), ""
        if route is None:
            head, _, arg = path.rpartition("/")
            route = ROUTES.get(head + "/<id>")
        if route is None:
            reply = _json(404, {"error": "unknown path"})
        else:
            reply = route.handler(srv, arg)
        self._reply(*reply)
        # Handler threads run concurrently; += is a read-modify-write.
        with srv.count_lock:
            srv.n_requests += 1

    def _reply(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # scrapes every few seconds would flood stderr


class ObsServer:
    """The scrape endpoint serving every path in :data:`ROUTES`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9463,
        registry: MetricsRegistry | None = None,
    ):
        self.registry = registry if registry is not None else METRICS
        self.t0 = time.monotonic()
        self.n_requests = 0
        # Every handler thread bumps n_requests; /healthz handlers read it.
        self.count_lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.obs = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsServer":
        """Serve on a daemon thread (tests, warm CLI process)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
