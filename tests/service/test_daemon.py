"""The daemon over real sockets: backpressure, drain, HTTP, telemetry.

These tests run the full stack — :class:`BackgroundServer` on a worker
thread, :class:`ServiceClient` over a unix socket — and pin the
operational contracts of the acceptance criteria: overload produces
*typed retryable rejects* (never queue collapse), shutdown is a drain
that destroys every shared-memory block (the conftest leak fixture
double-checks), and the HTTP adapter maps error codes onto real HTTP
statuses.
"""

import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.service.api import (
    SCHEMA_VERSION,
    AllocationRequest,
    FleetSpec,
    ServiceError,
)
from repro.service.client import ServiceClient
from repro.service.daemon import MAX_REQUEST_BYTES, BackgroundServer
from repro.service.loadgen import run_load

N = 64


@pytest.fixture()
def server():
    with BackgroundServer() as srv:
        yield srv


@pytest.fixture()
def fleet(server):
    return server.service.open_fleet(
        FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="f0")
    )


class TestRequestReply:
    def test_ping_and_allocate_over_socket(self, server, fleet):
        with ServiceClient(server.address) as client:
            assert client.ping().message == "ok"
            result = client.allocate(
                AllocationRequest.build(
                    fleet_id="f0", scheme="vafsor", budgets_w=[80.0 * N]
                )
            )
            assert result.n_modules == N
            assert result.allocations[0].feasible

    def test_open_fleet_over_socket_exports_shm(self, server):
        with ServiceClient(server.address) as client:
            handle = client.open_fleet(
                FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="w")
            )
            assert handle.shm_name.startswith("psm_")
            assert os.path.exists(f"/dev/shm/{handle.shm_name}")
            client.close_fleet(handle)
            assert not os.path.exists(f"/dev/shm/{handle.shm_name}")

    def test_wire_error_is_typed(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as exc:
                client.allocate(
                    AllocationRequest.build(fleet_id="ghost", budgets_w=[1e4])
                )
            assert exc.value.code == "unknown-fleet"
            assert not exc.value.retryable

    def test_malformed_line_gets_typed_reply(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(server.address)
            s.sendall(b"this is not json\n")
            reply = json.loads(s.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    def test_malformed_payload_gets_typed_reply_and_connection_serves_on(
        self, server
    ):
        bad = {"schema_version": SCHEMA_VERSION, "op": "open-fleet",
               "payload": {"n_modules": "abc"}}
        ping = {"schema_version": SCHEMA_VERSION, "op": "ping", "payload": {}}
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(server.address)
            f = s.makefile("rb")
            s.sendall(json.dumps(bad).encode() + b"\n")
            reply = json.loads(f.readline())
            s.sendall(json.dumps(ping).encode() + b"\n")
            pong = json.loads(f.readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"
        assert pong["ok"] is True

    def test_unknown_version_rejected_on_the_wire(self, server):
        line = (
            json.dumps(
                {"schema_version": 999, "op": "ping", "payload": {}}
            ).encode()
            + b"\n"
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(server.address)
            s.sendall(line)
            reply = json.loads(s.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "unknown-version"
        assert reply["schema_version"] == SCHEMA_VERSION


class TestOversizeRequest:
    def send_oversize_line(self, sock) -> dict:
        line = b'{"op": "ping", "pad": "' + b"x" * MAX_REQUEST_BYTES + b'"}\n'
        try:
            sock.sendall(line)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the daemon replied and closed before taking it all
        f = sock.makefile("rb")
        reply = json.loads(f.readline())
        assert f.readline() == b""  # then a clean close
        return reply

    def test_oversize_line_gets_typed_reply_and_daemon_keeps_serving(
        self, server
    ):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(server.address)
            reply = self.send_oversize_line(s)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "request-too-large"
        assert not reply["error"]["retryable"]
        with ServiceClient(server.address) as client:
            assert client.ping().message == "ok"

    def test_oversize_line_over_tcp(self):
        with BackgroundServer(port=0) as server:
            port = server.daemon.port
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                reply = self.send_oversize_line(s)
            assert reply["error"]["code"] == "request-too-large"
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                s.sendall(b'{"schema_version": %d, "op": "ping", "payload": {}}\n'
                          % SCHEMA_VERSION)
                assert json.loads(s.makefile("rb").readline())["ok"] is True


class TestBackpressure:
    def test_overload_is_fast_typed_reject(self, fleet, monkeypatch):
        """With max_pending=1 and a deliberately slow handler, a second
        concurrent request must bounce immediately with a retryable
        `overloaded` error — not queue behind the first."""
        monkeypatch.setenv("REPRO_SERVICE_TEST_DELAY_MS", "500")
        with BackgroundServer(max_pending=1) as slow:
            first_ok = []

            def _slow_ping():
                with ServiceClient(slow.address) as c:
                    first_ok.append(c.ping().message)

            t = threading.Thread(target=_slow_ping)
            t.start()
            time.sleep(0.15)  # let the first request enter the handler
            t0 = time.monotonic()
            with ServiceClient(slow.address) as client:
                with pytest.raises(ServiceError) as exc:
                    client.ping()
            reject_latency = time.monotonic() - t0
            t.join(timeout=10)

            assert exc.value.code == "overloaded"
            assert exc.value.retryable
            # The reject must not have waited out the 500 ms handler.
            assert reject_latency < 0.4
            assert first_ok == ["ok"]  # the slow request still completed

    def test_loadgen_round_trips(self, server, fleet):
        report = run_load(
            server.address,
            fleet_id="f0",
            duration_s=0.4,
            concurrency=2,
            budgets_w=(80.0 * N,),
        )
        assert report.n_ok > 0
        assert report.n_error == 0
        assert report.qps > 0


class TestDrain:
    def test_drain_destroys_fleets_and_socket(self):
        server = BackgroundServer()
        server.start()
        addr = server.address
        handle = server.service.open_fleet(
            FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="d0")
        )
        assert os.path.exists(f"/dev/shm/{handle.shm_name}")
        with ServiceClient(addr) as client:
            assert client.drain().message == "draining"
        server.drain()
        assert not os.path.exists(f"/dev/shm/{handle.shm_name}")
        assert not os.path.exists(addr)
        # A fresh connection can only fail typed-and-retryable.
        with pytest.raises(ServiceError) as exc:
            ServiceClient(addr).ping()
        assert exc.value.code == "connection-lost"
        assert exc.value.retryable

    def test_drain_is_idempotent(self, server):
        server.drain()
        server.drain()


class TestTelemetryStream:
    def test_streams_n_samples_with_counters(self, server, fleet):
        with ServiceClient(server.address) as client:
            client.ping()
            client.allocate(
                AllocationRequest.build(fleet_id="f0", budgets_w=[80.0 * N])
            )
            samples = client.telemetry(samples=3, interval_s=0.01)
        assert len(samples) == 3
        last = samples[-1]
        assert last.fleets == 1
        assert last.uptime_s > 0
        served = dict(last.served)
        assert served.get("ping", 0) >= 1
        assert served.get("allocate", 0) >= 1


class TestHttpAdapter:
    def post(self, port, path, body):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(
                "POST",
                path,
                body=body if isinstance(body, str) else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_post_maps_codes_to_statuses(self, monkeypatch):
        with BackgroundServer(http_port=0) as server:
            port = server.daemon.http_port
            server.service.open_fleet(
                FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="h0")
            )

            status, reply = self.post(
                port, "/v1/ping", {"schema_version": SCHEMA_VERSION, "payload": {}}
            )
            assert status == 200 and reply["ok"]

            status, reply = self.post(
                port,
                "/v1/allocate",
                {
                    "schema_version": SCHEMA_VERSION,
                    "payload": {"fleet_id": "h0", "budgets_w": [80.0 * N]},
                },
            )
            assert status == 200
            assert reply["result"]["allocations"][0]["feasible"]

            # unknown fleet -> 404
            status, reply = self.post(
                port,
                "/v1/allocate",
                {
                    "schema_version": SCHEMA_VERSION,
                    "payload": {"fleet_id": "ghost", "budgets_w": [1.0]},
                },
            )
            assert status == 404
            assert reply["error"]["code"] == "unknown-fleet"

            # wrong version -> 400
            status, reply = self.post(
                port, "/v1/ping", {"schema_version": 999, "payload": {}}
            )
            assert status == 400
            assert reply["error"]["code"] == "unknown-version"

            # unknown op -> 404
            status, reply = self.post(
                port, "/v1/explode", {"schema_version": SCHEMA_VERSION, "payload": {}}
            )
            assert status == 404
            assert reply["error"]["code"] == "unknown-op"

            # malformed payload, or JSON nested too deep to parse -> 400
            bad = {"schema_version": SCHEMA_VERSION, "payload": {"n_modules": "abc"}}
            for body in (bad, "[" * 100_000):
                status, reply = self.post(port, "/v1/open-fleet", body)
                assert status == 400
                assert reply["error"]["code"] == "bad-request"

    def test_oversize_content_length_is_413(self):
        with BackgroundServer(http_port=0) as server:
            port = server.daemon.http_port
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                # Only the head is sent: the daemon must answer from the
                # declared length, without waiting for the body.
                s.sendall(
                    b"POST /v1/ping HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n" % (MAX_REQUEST_BYTES + 1)
                )
                resp = http.client.HTTPResponse(s)
                resp.begin()
                status, reply = resp.status, json.loads(resp.read())
            assert status == 413
            assert reply["error"]["code"] == "request-too-large"
            status, reply = self.post(
                port, "/v1/ping", {"schema_version": SCHEMA_VERSION, "payload": {}}
            )
            assert status == 200 and reply["ok"]
