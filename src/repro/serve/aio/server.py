"""asyncio HTTP front end: keep-alive, pipelining, negotiated body codecs.

The transport of ``repro serve``; everything behind it — gateway, pinned
hot-promote refs, micro-batcher, guard accounting, shadow routing — is the
:class:`~repro.serve.http.ServingApp`:

* one :func:`asyncio.start_server` event loop handles every connection
  (HTTP/1.1 keep-alive; pipelined requests are parsed as they arrive,
  handled concurrently, and answered strictly in request order);
* request/response bodies are negotiated per request via ``Content-Type``
  (JSON, raw-ndarray, optional msgpack — see :mod:`.protocol`);
* the synchronous :class:`~repro.serve.batching.MicroBatcher` is bridged with
  :func:`asyncio.wrap_future` on the ``concurrent.futures.Future`` its
  ``submit`` returns — the event loop never blocks on inference, and
  concurrent requests coalesce into batches;
* request bodies are framed by ``Content-Length`` only: a request carrying
  ``Transfer-Encoding`` is answered ``411`` and its connection closed.

:class:`AioServerThread` runs the whole thing on a background thread for
tests, benchmarks and embedding; :func:`serve_aio` is the blocking
single-process entry point behind ``repro serve`` (multi-process is
:mod:`repro.serve.aio.supervisor`).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import urllib.parse
from concurrent.futures import Future
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ...defenses.base import GuardRejectedError
from ...obs import prom, trace
from ..http import ServingApp
from ..store import ModelStore, StoreError
from . import protocol
from .routing import RouteSpec

__all__ = ["AioServer", "AioServerThread", "serve_aio"]

#: Max accepted request body (64 MiB) — a campaign-sized batch fits easily.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Stream buffer limit — request heads (line + headers) must fit in this.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """A transport-level request defect (status + message, connection closes).

    ``endpoint`` labels its accounting: the request path once the request
    line parsed, ``_malformed`` before that.
    """

    def __init__(self, status: int, message: str, endpoint: str = "_malformed") -> None:
        super().__init__(message)
        self.status = status
        self.endpoint = endpoint


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
        query: str = "",
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class AioServer:
    """One event-loop HTTP server over a :class:`ServingApp`.

    ``reuse_port=True`` lets N worker processes bind the same address and have
    the kernel load-balance accepted connections across them (the
    :mod:`supervisor <repro.serve.aio.supervisor>` topology).
    """

    def __init__(
        self,
        app: ServingApp,
        host: str = "127.0.0.1",
        port: int = 8080,
        reuse_port: bool = False,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        kwargs: Dict[str, Any] = {"limit": MAX_HEADER_BYTES, "backlog": 128}
        if self.reuse_port:
            kwargs["reuse_port"] = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.app.aclose()

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Parse pipelined requests; answer concurrently but in order.

        Each parsed request immediately becomes a handler task, so request
        N+1 computes while request N's response is still being written; a
        FIFO queue drained by one writer coroutine guarantees response order
        matches request order (the HTTP/1.1 pipelining contract).
        """
        conn = self.app.connection_metrics
        conn.connection_opened()
        requests_on_connection = 0
        queue: "asyncio.Queue[Optional[Future]]" = asyncio.Queue(maxsize=64)
        drain = asyncio.get_running_loop().create_task(self._write_loop(queue, writer))
        # Server shutdown cancels open keep-alive handlers; swallow that
        # cancellation and exit normally so teardown stays quiet (asyncio's
        # stream callback logs handlers that end up "cancelled").
        cancelled = False
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as error:
                    self.app.record_http_request(error.endpoint)
                    self.app.record_http_response(error.endpoint, error.status)
                    await queue.put(
                        _completed(_error_response(error.status, str(error), False))
                    )
                    break
                if request is None:
                    break
                requests_on_connection += 1
                conn.request_on_connection(requests_on_connection)
                task = asyncio.get_running_loop().create_task(self._respond(request))
                await queue.put(task)
                if not request.keep_alive:
                    break
        except asyncio.CancelledError:
            cancelled = True
        finally:
            try:
                if cancelled:
                    drain.cancel()
                else:
                    try:
                        await queue.put(None)
                        await drain
                    except asyncio.CancelledError:
                        drain.cancel()
            finally:
                # Open until its last queued response has been written.
                conn.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _write_loop(
        self, queue: "asyncio.Queue[Optional[Future]]", writer: asyncio.StreamWriter
    ) -> None:
        # Keep consuming the queue even after the client disconnects: the
        # reader side blocks on `queue.put` for backpressure, so a writer
        # that bailed outright would deadlock a pipelining client that
        # slammed the connection shut with requests still queued.
        client_gone = False
        while True:
            item = await queue.get()
            if item is None:
                return
            data = await asyncio.wrap_future(item) if isinstance(item, Future) else await item
            if client_gone:
                continue
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                client_gone = True

    async def _respond(self, request: _Request) -> bytes:
        keep = request.keep_alive
        app = self.app
        # Until the body is decoded, the best endpoint label is the path; a
        # localize request re-labels to the model it asked for (resolvable or
        # not — satellite accounting must show unknown endpoints' 404s).
        endpoint = request.path
        counted = False
        status = 200
        with trace.span(
            "http.request", transport="aio", method=request.method, path=request.path
        ) as sp:
            try:
                if request.method == "GET":
                    app.record_http_request(endpoint)
                    counted = True
                    status, data = await self._respond_get(request)
                    return data
                if request.method != "POST":
                    status = 405
                    return _error_response(
                        405, f"method {request.method} not allowed", keep
                    )
                if request.path != "/v1/localize":
                    status = 404
                    return _error_response(404, f"unknown path {request.path!r}", keep)
                content_type = protocol.normalize_content_type(
                    request.headers.get("content-type")
                )
                payload = protocol.decode_body(request.body, content_type)
                endpoint = app.requested_endpoint(payload)
                app.record_http_request(endpoint)
                counted = True
                sp.set(endpoint=endpoint, content_type=content_type)
                document = await app.localize_document(payload)
                sp.set(
                    served_ref=document.get("ref"),
                    batch=len(document.get("labels", ())),
                )
                return _response(
                    200, protocol.encode_body(document, content_type), content_type, keep
                )
            except StoreError as error:
                status = 404
                return _error_response(404, str(error), keep)
            except GuardRejectedError as error:
                status = 403
                body = json.dumps(
                    {
                        "error": str(error),
                        "defense": error.defense,
                        "flagged": list(error.flagged_indices),
                    }
                ).encode("utf-8")
                return _response(403, body, protocol.CONTENT_JSON, keep)
            except protocol.UnsupportedContentType as error:
                status = 415
                return _error_response(415, str(error), keep)
            except (protocol.ProtocolError, TypeError, ValueError) as error:
                status = 400
                return _error_response(400, str(error), keep)
            except Exception as error:  # pragma: no cover - defensive 500
                status = 500
                return _error_response(500, f"{type(error).__name__}: {error}", keep)
            finally:
                if not counted:
                    app.record_http_request(endpoint)
                app.record_http_response(endpoint, status)
                sp.set(status=status)

    async def _respond_get(self, request: _Request) -> Tuple[int, bytes]:
        loop = asyncio.get_running_loop()
        app = self.app
        if request.path == "/healthz":
            builder = app.health_document
        elif request.path == "/metrics":
            query = urllib.parse.parse_qs(request.query)
            if query.get("format", [""])[-1] == "prometheus":
                # Rendering walks every registry series under their locks —
                # cheap, but off the loop like the JSON document builders.
                text = await loop.run_in_executor(app._executor, app.prometheus_text)
                return 200, _response(
                    200, text.encode("utf-8"), prom.CONTENT_TYPE_PROM, request.keep_alive
                )
            builder = app.metrics_document
        elif request.path == "/v1/models":
            builder = app.models_document
        else:
            return 404, _error_response(
                404, f"unknown path {request.path!r}", request.keep_alive
            )
        # Document builders read store manifests (file I/O) — off the loop.
        document = await loop.run_in_executor(app._executor, builder)
        body = json.dumps(document).encode("utf-8")
        return 200, _response(200, body, protocol.CONTENT_JSON, request.keep_alive)


# ----------------------------------------------------------------------
# HTTP framing helpers
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one request head + body; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None  # connection closed between (or mid-) requests
    except asyncio.LimitOverrunError:
        raise _HttpError(431, "request header section too large") from None
    except ConnectionError:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    path, _, query = target.partition("?")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, separator, value = line.partition(":")
        if not separator:
            raise _HttpError(400, f"malformed header line {line!r}", path)
        headers[key.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # Bodies are read by Content-Length alone; reading past a chunked
        # body would parse its chunks as the next request.
        raise _HttpError(411, "Transfer-Encoding is not supported; send Content-Length", path)
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "invalid Content-Length", path) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _HttpError(413, "invalid or oversized request body", path)
    try:
        body = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    keep_alive = (
        version == "HTTP/1.1"
        and headers.get("connection", "keep-alive").lower() != "close"
    )
    return _Request(method, path, headers, body, keep_alive, query=query)


def _response(status: int, body: bytes, content_type: str, keep_alive: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def _error_response(status: int, message: str, keep_alive: bool) -> bytes:
    body = json.dumps({"error": message}).encode("utf-8")
    return _response(status, body, protocol.CONTENT_JSON, keep_alive)


def _completed(data: bytes) -> Future:
    future: Future = Future()
    future.set_result(data)
    return future


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def _run_server(
    app: ServingApp,
    host: str,
    port: int,
    reuse_port: bool,
    announce: bool,
    stop: asyncio.Event,
    started: Optional["Future[Tuple[AioServer, asyncio.AbstractEventLoop]]"] = None,
) -> None:
    """Serve until ``stop`` is set or the task is cancelled, then drain."""
    server = AioServer(app, host=host, port=port, reuse_port=reuse_port)
    try:
        await server.start()
    except BaseException as error:
        if started is not None and not started.done():
            started.set_exception(error)
            return
        raise
    if started is not None and not started.done():
        started.set_result((server, asyncio.get_running_loop()))
    if announce:
        print(f"repro serve (aio): listening on http://{server.host}:{server.port}")
        print(f"  store: {app.gateway.store.root}")
        print(f"  content types: {', '.join(protocol.supported_content_types())}")
    try:
        async with server._server:  # serve until told to stop
            await stop.wait()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()


def serve_aio(
    store: Union[ModelStore, str, None],
    host: str = "127.0.0.1",
    port: int = 8080,
    routes: Optional[Mapping[str, Union[str, RouteSpec]]] = None,
    reuse_port: bool = False,
    announce: bool = True,
    worker_id: Optional[int] = None,
    **app_kwargs,
) -> None:
    """Blocking single-process server behind ``repro serve``.

    SIGTERM stops it as Ctrl-C does: the server closes, the app drains, and
    the call returns, so the caller's own clean-up runs (a supervised
    worker closes its telemetry sink) instead of the process dying on the
    signal.  Called off the main thread, SIGTERM keeps its default action.
    """
    app = ServingApp(store, routes=routes, worker_id=worker_id, **app_kwargs)

    async def main() -> None:
        stop = asyncio.Event()
        if threading.current_thread() is threading.main_thread():
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        await _run_server(app, host, port, reuse_port, announce, stop)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class AioServerThread:
    """An asyncio server on a background thread (tests, benchmarks, embedding).

    ``start()`` blocks until the port is bound (or raises the startup
    failure); ``close()`` stops the loop and joins the thread.  Usable as a
    context manager.
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0, **app_kwargs) -> None:
        self._store = store
        self._host = host
        self._requested_port = port
        self._app_kwargs = app_kwargs
        self._started: "Future[Tuple[AioServer, asyncio.AbstractEventLoop]]" = Future()
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-aio-server", daemon=True
        )
        self.app: Optional[ServingApp] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup failures to start()
            if not self._started.done():
                self._started.set_exception(error)

    async def _main(self) -> None:
        self.app = ServingApp(self._store, **self._app_kwargs)
        self._stop = asyncio.Event()
        await _run_server(
            self.app,
            self._host,
            self._requested_port,
            reuse_port=False,
            announce=False,
            stop=self._stop,
            started=self._started,
        )

    def start(self) -> "AioServerThread":
        self._thread.start()
        server, loop = self._started.result(timeout=30.0)
        self.port = server.port
        self._loop = loop
        return self

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def drain_shadow_tasks(self, timeout: float = 30.0) -> None:
        """Block (from any thread) until pending shadow mirrors are recorded."""
        if self._loop is None or self.app is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.app.shadow_quiesce(), self._loop)
        future.result(timeout=timeout)

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "AioServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
