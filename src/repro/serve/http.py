"""The stdlib HTTP/1.1 daemon core shared by ``repro serve`` and ``repro
worker``.

:class:`Daemon` owns everything the two daemons have in common: binding
(port 0 picks one), one connection handler, a path-to-handler table, and
the graceful stop with a per-daemon drain hook.  :func:`run_daemon` runs one
until it has drained.  It lives apart from :mod:`repro.serve.server` so the
distributed sweep layer (:mod:`repro.harness.distributed`) can use it
without dragging in the serving stack (coalescer, batch queue, stats).  The
wire contract is deliberately tiny: one request per connection,
``Content-Length`` bodies only, canonical JSON responses.
:func:`http_exchange` is the matching blocking client, shared by ``repro
submit`` and the sweep coordinator's worker client.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from typing import Any, Mapping, Optional

#: Upper bound on accepted request bodies (a wire-form request is a few KB;
#: a full request *batch* a few hundred).
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def canonical_json(payload: Any) -> bytes:
    """The one JSON rendering every response path shares (byte-stable)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class HttpRequest:
    """One parsed (minimal) HTTP/1.1 request."""

    method: str
    path: str
    query: str
    headers: Mapping[str, str]
    body: bytes


async def read_http_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request from ``reader`` (``None`` on immediate EOF)."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise ValueError("too many headers")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValueError("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"unacceptable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return HttpRequest(method.upper(), path, query, headers, body)


async def respond(writer, status: int, payload, *, extra_headers=()) -> None:
    """Write one JSON (or pre-encoded bytes) response and flush it."""
    body = payload if isinstance(payload, bytes) else canonical_json(payload)
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    head += "\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    *,
    timeout: float,
):
    """One blocking HTTP/1.1 request (stdlib only, one connection).

    A request with a body is sent as ``application/json``.  Returns
    ``(status, response body, response headers)``; connection failures
    propagate as ``OSError`` (a read that outlives ``timeout`` as
    ``TimeoutError``), for the caller to map onto its own errors.
    """
    # Imported here: http.client pulls in the email package (about 1 MB
    # of modules) that a daemon, which only answers requests, never needs.
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        return response.status, response.read(), response.headers
    finally:
        conn.close()


class Daemon:
    """A long-lived HTTP daemon: bind, route, drain, stop.

    Subclasses fill :attr:`ROUTES` and may override :meth:`_drain`, which
    runs once when a graceful stop begins, before the listener closes.
    """

    #: ``path -> (method, handler name)``.  A path ending in ``/`` matches
    #: every path below it.  Handlers are looked up by name on each request,
    #: so a handler replaced on the class after startup is the one that runs.
    ROUTES: Mapping[str, tuple[str, str]] = {}
    #: What the daemon calls itself in its readiness line.
    NAME = "repro daemon"

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed: Optional[asyncio.Event] = None
        #: The stop task (held: the loop keeps only weak task references).
        self._stopping: Optional[asyncio.Task] = None

    async def start(self) -> None:
        """Bind the listener (call on the loop)."""
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one": surface the kernel's choice.
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_shutdown(self) -> None:
        """Start the graceful stop (idempotent, loop-confined)."""
        if self._draining:
            return
        self._draining = True
        self._stopping = asyncio.get_running_loop().create_task(self._stop())

    async def _drain(self) -> None:
        """Finish in-flight work before the listener closes."""

    async def _stop(self) -> None:
        await self._drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._closed is not None
        self._closed.set()

    async def wait_closed(self) -> None:
        """Wait until a graceful stop has completed."""
        assert self._closed is not None, "start() was not called"
        await self._closed.wait()

    # -- HTTP ----------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_http_request(reader)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                await respond(writer, 400, {"error": f"bad request: {exc}"})
                return
            if request is None:
                return
            await self._route(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # never let a handler bug kill the loop
            try:
                await respond(writer, 500, {"error": f"internal error: {exc}"})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, request: HttpRequest, writer) -> None:
        path = request.path.rstrip("/") or "/"
        route = self.ROUTES.get(path) or next(
            (
                entry for prefix, entry in self.ROUTES.items()
                if prefix.endswith("/") and path.startswith(prefix)
            ),
            None,
        )
        if route is None:
            await respond(writer, 404, {"error": f"unknown path {path!r}"})
            return
        method, handler = route
        if request.method != method:
            await respond(writer, 405, {"error": f"use {method}"})
            return
        await getattr(self, handler)(request, writer)

    async def _handle_shutdown(self, request: HttpRequest, writer) -> None:
        await respond(writer, 200, {"status": "draining"})
        self.begin_shutdown()


async def run_daemon(daemon: Daemon, *, announce=None) -> None:
    """Start ``daemon``, announce its address, serve until it has drained.

    SIGINT/SIGTERM trigger the same graceful stop as ``POST /shutdown``
    (where the platform supports loop signal handlers).  The handlers are
    installed before the readiness line is announced: scripts wait on that
    line, so a signal sent the moment it appears must already drain.
    """
    await daemon.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, daemon.begin_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    if announce is not None:
        announce(f"{daemon.NAME} listening on {daemon.address}")
    await daemon.wait_closed()
