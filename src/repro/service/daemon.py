"""The allocation-service daemon: asyncio front-end over the engine.

One :class:`ServiceDaemon` serves a single
:class:`~repro.service.engine.AllocationService` over:

* a newline-delimited-JSON **unix socket** (the default transport —
  one request envelope per line, one reply line per request, replies in
  request order per connection; the ``telemetry`` op streams several
  reply lines),
* optionally the same NDJSON protocol on a **TCP port**, and
* optionally a minimal **HTTP adapter** (``POST /v1/<op>`` with a
  ``{"schema_version": N, "payload": {...}}`` body; error codes map to
  HTTP statuses via :data:`~repro.service.api.ERROR_HTTP_STATUS`, so
  overload is a literal 429).

Request handling is strictly bounded: at most ``max_pending`` requests
may be in flight across all connections, and anything beyond that is
rejected *immediately* with a retryable ``overloaded`` error — the
event loop never queues unbounded work behind the engine, so overload
degrades into fast typed rejects rather than latency collapse or a
hang.  Engine calls run on a small thread pool (the engine object is
lock-guarded), keeping the loop free to answer pings and rejects while
a sweep simulates.

Shutdown is a drain, never a drop: SIGTERM/SIGINT (or a ``drain``
request) stops the listeners, answers new requests with a retryable
``draining`` error, waits for in-flight work, then destroys every
hosted fleet's shared-memory block before exiting — the smoke test
asserts ``/dev/shm`` is clean afterwards.

:func:`serve` is the blocking entry point behind ``repro serve``;
:class:`BackgroundServer` hosts the same daemon on a worker thread for
tests, docs, and the benchmark load generator.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import repro.telemetry as telemetry
from repro.service.api import (
    ERROR_HTTP_STATUS,
    SCHEMA_VERSION,
    Ack,
    ServiceError,
    TelemetrySample,
    decode_request,
    encode_reply,
)
from repro.service.engine import AllocationService

__all__ = ["ServiceDaemon", "BackgroundServer", "serve"]

#: Largest request the daemon reads: one NDJSON line, or one HTTP body
#: or header line.  1 MiB holds a ``sweep`` over tens of thousands of
#: budgets; anything longer gets a typed ``request-too-large`` reply
#: (HTTP 413) instead of being buffered.
MAX_REQUEST_BYTES = 1 << 20

#: Test hook: sleep this many milliseconds inside every worker-thread
#: dispatch.  Lets the overload tests hold requests in flight
#: deterministically; unset (the default) costs one getenv per request.
_SLOW_ENV = "REPRO_SERVICE_TEST_DELAY_MS"


def default_socket_path() -> str:
    """The per-process default unix-socket path for ``repro serve``."""
    return os.path.join(tempfile.gettempdir(), f"repro-serve-{os.getpid()}.sock")


class ServiceDaemon:
    """Bounded asyncio front-end for one :class:`AllocationService`.

    Parameters
    ----------
    service:
        The engine to serve (owned: drain destroys its fleets).
    socket_path / port / http_port:
        Listeners to open; at least one must be given.  ``port`` serves
        the NDJSON protocol over TCP, ``http_port`` the HTTP adapter
        (both on localhost).
    max_pending:
        In-flight request bound across all connections; excess requests
        are rejected immediately with retryable ``overloaded`` errors.
    workers:
        Threads executing engine calls.  The engine is fully
        lock-guarded, so extra threads only help when requests block on
        different fleets' first table builds.
    """

    def __init__(
        self,
        service: AllocationService,
        *,
        socket_path: str | None = None,
        port: int | None = None,
        http_port: int | None = None,
        max_pending: int = 64,
        workers: int = 1,
    ):
        if socket_path is None and port is None and http_port is None:
            raise ServiceError(
                "bad-request", "the daemon needs a socket path or a port"
            )
        self.service = service
        self.socket_path = socket_path
        self.port = port
        self.http_port = http_port
        self.max_pending = max(1, int(max_pending))
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(workers)), thread_name_prefix="repro-serve"
        )
        self._inflight = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._servers: list[asyncio.base_events.Server] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = time.monotonic()
        self._served: dict[str, int] = {}
        self._rejected: dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Open the listeners (idempotent per instance)."""
        self._loop = asyncio.get_running_loop()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._serve_ndjson, self.socket_path, limit=MAX_REQUEST_BYTES
                )
            )
        if self.port is not None:
            server = await asyncio.start_server(
                self._serve_ndjson, "127.0.0.1", self.port,
                limit=MAX_REQUEST_BYTES,
            )
            if self.port == 0:  # ephemeral: record what the OS picked
                self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.http_port is not None:
            server = await asyncio.start_server(
                self._serve_http, "127.0.0.1", self.http_port,
                limit=MAX_REQUEST_BYTES,
            )
            if self.http_port == 0:
                self.http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    def request_drain(self) -> None:
        """Begin the graceful drain (signal handler / ``drain`` op).

        Safe to call repeatedly and from any thread via
        ``loop.call_soon_threadsafe``.
        """
        if self._draining:
            return
        self._draining = True
        assert self._loop is not None
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        # All replies written: release the hot fleets' shm blocks.
        self.service.close_all()
        self._pool.shutdown(wait=True)
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._drained.set()

    async def run_until_drained(
        self,
        *,
        install_signals: bool = False,
        on_ready: Callable[[], None] | None = None,
    ) -> None:
        """Serve until a drain completes.  ``install_signals`` wires
        SIGTERM/SIGINT to :meth:`request_drain` (main thread only);
        ``on_ready`` fires once the listeners are open — ephemeral
        ``port=0``/``http_port=0`` requests are resolved to the real
        port numbers by then."""
        await self.start()
        if on_ready is not None:
            on_ready()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_drain)
        await self._drained.wait()

    # -- dispatch ---------------------------------------------------------------

    def _handle(self, op: str, payload) -> object:
        """Execute one request against the engine (worker thread)."""
        delay_ms = os.environ.get(_SLOW_ENV)
        if delay_ms:
            time.sleep(float(delay_ms) / 1e3)
        service = self.service
        if op == "ping":
            return Ack()
        if op == "open-fleet":
            return service.open_fleet(payload)
        if op == "close-fleet":
            service.close_fleet(payload.fleet_id)
            return Ack(f"closed {payload.fleet_id}")
        if op == "allocate":
            return service.allocate(payload)
        if op == "sweep":
            return service.sweep(payload)
        if op == "admit":
            return service.admit(payload)
        if op == "depart":
            return service.depart(payload)
        if op == "set-budget":
            return service.set_budget(payload)
        if op == "schemes":
            return service.schemes()
        raise ServiceError("unknown-op", f"op {op!r} has no handler")

    def _telemetry_sample(self) -> TelemetrySample:
        snap = telemetry.snapshot() or {}
        return TelemetrySample(
            uptime_s=time.monotonic() - self._t0,
            inflight=self._inflight,
            fleets=self.service.n_fleets,
            jobs=self.service.n_jobs,
            served=tuple(sorted(self._served.items())),
            rejected=tuple(sorted(self._rejected.items())),
            counters=tuple(sorted(snap.items())),
        )

    async def _dispatch(self, op: str, payload) -> tuple[object, ServiceError | None]:
        """Admission control + engine execution; never raises."""
        if self._draining:
            self._count(self._rejected, op)
            return None, ServiceError(
                "draining", "the service is draining", retryable=True
            )
        if self._inflight >= self.max_pending:
            self._count(self._rejected, op)
            return None, ServiceError(
                "overloaded",
                f"{self._inflight} requests in flight (limit "
                f"{self.max_pending}); retry with backoff",
                retryable=True,
            )
        self._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._pool, self._handle, op, payload
            )
            self._count(self._served, op)
            return result, None
        except ServiceError as exc:
            self._count(self._rejected, op)
            return None, exc
        except Exception as exc:  # engine invariant violation — still typed
            self._count(self._rejected, op)
            return None, ServiceError("internal", f"{type(exc).__name__}: {exc}")
        finally:
            self._inflight -= 1

    @staticmethod
    def _count(table: dict[str, int], op: str) -> None:
        table[op] = table.get(op, 0) + 1

    # -- NDJSON transport ----------------------------------------------------------

    async def _serve_ndjson(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:  # the line overran MAX_REQUEST_BYTES
                    writer.write(encode_reply("?", error=_too_large()))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    op, payload = decode_request(line)
                except ServiceError as exc:
                    writer.write(encode_reply("?", error=exc))
                    await writer.drain()
                    continue
                if op == "telemetry":
                    await self._stream_telemetry(writer, payload)
                    continue
                if op == "drain":
                    writer.write(encode_reply(op, Ack("draining")))
                    await writer.drain()
                    self.request_drain()
                    continue
                result, error = await self._dispatch(op, payload)
                writer.write(encode_reply(op, result, error=error))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _stream_telemetry(self, writer, req) -> None:
        """``samples`` reply lines, ``interval_s`` apart — a poor
        man's subscription that needs no server-side push machinery."""
        for i in range(req.samples):
            if i:
                await asyncio.sleep(req.interval_s)
            writer.write(encode_reply("telemetry", self._telemetry_sample()))
            await writer.drain()

    # -- HTTP adapter ---------------------------------------------------------------

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1: ``POST /v1/<op>`` with the versioned body
        ``{"schema_version": N, "payload": {...}}``.  One request per
        connection (``Connection: close``)."""
        try:
            status, body = await self._http_once(reader)
            head = (
                f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _http_once(self, reader) -> tuple[int, bytes]:
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
            length = 0
            while True:
                header = (await reader.readline()).decode("latin-1").strip()
                if not header:
                    break
                name, _, value = header.partition(":")
                if name.lower() == "content-length":
                    length = int(value.strip() or 0)
            if length > MAX_REQUEST_BYTES:
                return 413, encode_reply("?", error=_too_large())
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ValueError, UnicodeDecodeError):
            err = ServiceError("bad-request", "malformed HTTP request")
            return 400, encode_reply("?", error=err)

        parts = request_line.split()
        if len(parts) != 3 or parts[0] != "POST" or not parts[1].startswith("/v1/"):
            err = ServiceError(
                "unknown-op", "expected POST /v1/<op> (see docs/API.md)"
            )
            return 404, encode_reply("?", error=err)
        op = parts[1][len("/v1/"):]
        # Rebuild the canonical envelope so the HTTP and socket paths
        # share one validator (version check included).
        try:
            envelope = json.loads(body or b"{}")
        except (json.JSONDecodeError, RecursionError) as exc:
            err = ServiceError("bad-request", f"body is not valid JSON: {exc}")
            return 400, encode_reply(op, error=err)
        if not isinstance(envelope, dict):
            err = ServiceError("bad-request", "body must be a JSON object")
            return 400, encode_reply(op, error=err)
        envelope["op"] = op
        try:
            op, payload = decode_request(json.dumps(envelope))
        except ServiceError as exc:
            return ERROR_HTTP_STATUS.get(exc.code, 500), encode_reply(op, error=exc)
        if op in ("telemetry",):
            return 200, encode_reply(op, self._telemetry_sample())
        if op == "drain":
            self.request_drain()
            return 200, encode_reply(op, Ack("draining"))
        result, error = await self._dispatch(op, payload)
        if error is not None:
            return ERROR_HTTP_STATUS.get(error.code, 500), encode_reply(op, error=error)
        return 200, encode_reply(op, result)


def _too_large() -> ServiceError:
    return ServiceError(
        "request-too-large", f"request exceeds {MAX_REQUEST_BYTES} bytes"
    )


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def serve(
    *,
    socket_path: str | None = None,
    port: int | None = None,
    http_port: int | None = None,
    fleets: tuple[str, ...] = (),
    jobs: int = 1,
    max_pending: int = 64,
    workers: int = 1,
    quiet: bool = False,
) -> None:
    """Run the allocation service until SIGTERM/SIGINT drains it.

    This is ``repro serve``.  ``fleets`` pre-opens fleets from CLI
    shorthand specs (``system:n_modules[:seed]``) so the daemon comes up
    hot; with no listener configured a unix socket is created at
    :func:`default_socket_path`.
    """
    from repro.service.api import FleetSpec

    if socket_path is None and port is None and http_port is None:
        socket_path = default_socket_path()
    service = AllocationService(jobs=jobs)
    daemon = ServiceDaemon(
        service,
        socket_path=socket_path,
        port=port,
        http_port=http_port,
        max_pending=max_pending,
        workers=workers,
    )
    for text in fleets:
        handle = service.open_fleet(FleetSpec.parse(text))
        if not quiet:
            print(
                f"opened {handle.fleet_id}: {handle.system} "
                f"n={handle.n_modules:,} (shm {handle.shm_name or 'off'})"
            )
    def _announce() -> None:
        # Runs after the listeners open: daemon.port / daemon.http_port
        # hold the OS-picked numbers when 0 (ephemeral) was requested,
        # so the banner is always connectable-to as printed.
        if quiet:
            return
        where = []
        if daemon.socket_path is not None:
            where.append(f"socket {daemon.socket_path}")
        if daemon.port is not None:
            where.append(f"tcp 127.0.0.1:{daemon.port}")
        if daemon.http_port is not None:
            where.append(f"http 127.0.0.1:{daemon.http_port}")
        print(
            f"repro serve v{SCHEMA_VERSION} listening on "
            + ", ".join(where)
            + " (SIGTERM to drain)",
            flush=True,
        )

    try:
        asyncio.run(
            daemon.run_until_drained(install_signals=True, on_ready=_announce)
        )
    finally:
        # Belt and braces: the drain already destroyed the fleets, but a
        # loop crash must never leak shm blocks.
        service.close_all()


class BackgroundServer:
    """A :class:`ServiceDaemon` on a worker thread, for tests/docs/bench.

    Context-manager protocol: entering starts the daemon and waits for
    its listeners, exiting drains it (fleets destroyed, shm released).
    ``server.service`` is the engine — opening fleets directly on it is
    the cheap way to pre-warm before pointing a client at
    ``server.address``.
    """

    def __init__(
        self,
        service: AllocationService | None = None,
        *,
        socket_path: str | None = None,
        port: int | None = None,
        http_port: int | None = None,
        max_pending: int = 64,
        workers: int = 1,
    ):
        self.service = service if service is not None else AllocationService()
        if socket_path is None and port is None and http_port is None:
            socket_path = os.path.join(
                tempfile.mkdtemp(prefix="repro-serve-"), "service.sock"
            )
        self.daemon = ServiceDaemon(
            self.service,
            socket_path=socket_path,
            port=port,
            http_port=http_port,
            max_pending=max_pending,
            workers=workers,
        )
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def address(self) -> str | tuple[str, int]:
        """What to hand :class:`~repro.service.client.ServiceClient`."""
        if self.daemon.socket_path is not None:
            return self.daemon.socket_path
        return ("127.0.0.1", self.daemon.port)

    def start(self) -> "BackgroundServer":
        def _run():
            async def _main():
                self._loop = asyncio.get_running_loop()
                await self.daemon.start()
                self._ready.set()
                await self.daemon._drained.wait()

            asyncio.run(_main())

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServiceError("internal", "background server failed to start")
        return self

    def drain(self, timeout: float = 30.0) -> None:
        """Threadsafe graceful shutdown; joins the server thread."""
        if self._thread is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.daemon.request_drain)
            except RuntimeError:  # loop already closing
                pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise ServiceError("timeout", "drain did not complete", retryable=True)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()
