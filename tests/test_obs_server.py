"""The /metrics, /healthz, /trace/last and query-log HTTP endpoints."""

import json
import os
import socket
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.obs import validate_prometheus_text
from repro.obs.context import clear_degraded
from repro.obs.metrics import MetricsRegistry
from repro.obs.qlog import clear_wide_events, record_wide_event
from repro.obs.server import (
    PROM_CONTENT_TYPE,
    ROUTES,
    ObsServer,
    Route,
    set_last_trace,
)


@pytest.fixture(autouse=True)
def _fresh_health():
    # Chaos tests elsewhere flip the process-wide degraded flag; the
    # health assertions here must not depend on test order.
    clear_degraded()
    yield
    clear_degraded()


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("test.requests", "requests seen").inc(3)
    reg.histogram("test.latency_ms", "latency").observe(12.5)
    reg.gauge("test.depth", "queue depth").set(7)
    return reg


@pytest.fixture()
def server(registry):
    srv = ObsServer(port=0, registry=registry).start()
    yield srv
    srv.stop()
    set_last_trace(None)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


class TestEndpoints:
    def test_metrics_is_valid_prometheus_text(self, server):
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE
        text = body.decode()
        assert validate_prometheus_text(text) == []
        assert "repro_test_requests_total 3" in text
        assert 'repro_test_latency_ms_bucket{le="+Inf"} 1' in text
        assert "repro_test_depth 7" in text

    def test_healthz(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["uptime_s"] >= 0

    def test_trace_last_404_until_set(self, server):
        set_last_trace(None)
        status, _, _ = _get(server.url + "/trace/last")
        assert status == 404
        doc = {"traceEvents": [], "otherData": {"query": "q06"}}
        set_last_trace(doc)
        status, _, body = _get(server.url + "/trace/last")
        assert status == 200
        assert json.loads(body) == doc

    def test_unknown_path_is_404(self, server):
        status, _, _ = _get(server.url + "/nope")
        assert status == 404

    def test_healthz_counts_scrapes(self, server):
        _get(server.url + "/metrics")
        _get(server.url + "/metrics")
        _, _, body = _get(server.url + "/healthz")
        assert json.loads(body)["scrapes"] >= 2


class TestQueryLogEndpoints:
    @pytest.fixture(autouse=True)
    def _ring(self):
        clear_wide_events()
        yield
        clear_wide_events()

    def test_recent_is_empty_until_a_query_runs(self, server):
        status, _, body = _get(server.url + "/query-log/recent")
        assert status == 200
        assert json.loads(body) == {"events": []}

    def test_recent_returns_newest_first(self, server):
        record_wide_event({"query_id": 1, "query": "q01"})
        record_wide_event({"query_id": 2, "query": "q06"})
        _, _, body = _get(server.url + "/query-log/recent")
        events = json.loads(body)["events"]
        assert [e["query_id"] for e in events] == [2, 1]

    def test_query_by_id(self, server):
        record_wide_event({"query_id": 7, "query": "q14"})
        status, _, body = _get(server.url + "/query/7")
        assert status == 200
        assert json.loads(body)["query"] == "q14"

    def test_query_unknown_id_is_404(self, server):
        status, _, body = _get(server.url + "/query/999")
        assert status == 404
        assert b"no such query id" in body

    def test_query_non_numeric_id_is_404(self, server):
        status, _, _ = _get(server.url + "/query/abc")
        assert status == 404


def _raw_get(server, target: bytes) -> bytes:
    """Status line of a GET whose target urllib would refuse to send."""
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=5
    ) as sock:
        sock.sendall(
            b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n"
        )
        return sock.makefile("rb").readline()


class TestHostileRequests:
    """A bad request gets a 4xx, never a traceback + dropped socket."""

    @pytest.mark.parametrize("target", [
        # str.isdigit() says yes to a superscript two, int() says no
        pytest.param(b"/query/\xb2", id="non-ascii-digit"),
        # past int()'s 4300-digit conversion limit
        pytest.param(b"/query/" + b"9" * 5000, id="5000-digits"),
        pytest.param(b"/query/-1", id="negative"),
        pytest.param(b"/query/1/2", id="extra-segment"),
    ])
    def test_bad_query_id_is_404(self, server, capfd, target):
        assert _raw_get(server, target).split()[1] == b"404"
        assert capfd.readouterr().err == ""

    def test_junk_around_every_route(self, server, capfd):
        for path in ROUTES:
            for probe in (
                path + "?window=fish&%00=%ff&&=",
                path + "/../junk",
                path + "%2e%2e/" + "x" * 2000,
            ):
                status = _raw_get(server, probe.encode()).split()[1]
                assert status in (b"200", b"404"), probe
        assert capfd.readouterr().err == ""


class TestRouteTable:
    def test_every_declared_route_is_handled(self, server):
        """Each ROUTES path must resolve to its handler — anything
        hitting the unknown-path 404 means the banner/help advertises
        a dead endpoint."""
        for path in ROUTES:
            probe = path.replace("<id>", "12345")
            status, _, body = _get(server.url + probe)
            if status == 404:
                # Allowed only for data-dependent 404s, never the
                # unknown-path fallthrough.
                assert b"unknown path" not in body, path

    def test_route_summary_names_every_path(self):
        from repro.obs.server import route_summary

        summary = route_summary()
        for path in ROUTES:
            assert path in summary

    def test_dispatch_goes_through_the_table(self, server, monkeypatch):
        """A route exists exactly when ROUTES holds it: adding an
        entry is all it takes to serve a path."""
        monkeypatch.setitem(ROUTES, "/ping/<id>", Route(
            "test route",
            lambda srv, arg: (200, "text/plain", arg.encode()),
        ))
        status, _, body = _get(server.url + "/ping/pong")
        assert (status, body) == (200, b"pong")

    def test_route_without_handler_cannot_be_declared(self):
        with pytest.raises(TypeError):
            Route("documented but unhandled")


def test_engine_imports_do_not_load_http_server():
    """Only ``repro serve`` pays for ``http.server``: the ambient state
    the engine and fault layer touch lives in ``obs.context`` /
    ``obs.qlog``, not in the HTTP module."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys, repro.engine, repro.core, repro.faults, "
        "repro.storage, repro.analysis\n"
        "loaded = [m for m in ('http.server', 'repro.obs.server') "
        "if m in sys.modules]\n"
        "sys.exit(', '.join(loaded) or 0)"
    )
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
