"""The one HTTP/1.1 layer of the serve worker and the shard router.

Both roles of ``ttm-cas serve`` — the worker
(:class:`~repro.serve.server.EvalServer`) and the router
(:class:`~repro.serve.shard.ShardSupervisor`) — accept connections
through a :class:`Listener`: request line, headers, ``Content-Length``
bodies and keep-alive on ``asyncio.start_server``. A role supplies one
coroutine, ``handle(request)``, that answers a request read in full and
returns whether the connection stays open; everything about the wire
lives here, so both roles answer every wire fault the same way:

=============================================  =========================
fault                                          answer
=============================================  =========================
malformed request line or header line          400 ``invalid_request``
``Content-Length`` that is not all digits      400 ``invalid_request``
request head over 64 KiB                       400 ``invalid_request``
body over the role's ``max_body_bytes``        413 ``payload_too_large``
head and body not received in the read limit   408 ``request_timeout``
no byte of a next request in the idle limit    close, no reply
=============================================  =========================

Each of these replies closes the connection, and the one response
writer holds the one rule for closing: a response after which the
connection closes carries ``Connection: close``. The role's request
ledger records each refusal like any reply it sends, under the endpoint
of the request line when the head parsed (``-`` when it did not). The
router's hop to a worker (:func:`write_request`, :func:`read_response`)
shares the header parse and the ``Content-Length`` check; its response
is not timed here, since it waits on processing, which
``X-Deadline-Ms`` bounds.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from .common import error_body

#: Seconds a connection may wait for the first byte of its next request
#: before it is closed without a reply. No reply is owed, since no
#: request was read; and a 408 here would sit unread in the router's
#: keep-alive pool and be relayed as the answer to the next request it
#: forwards. The router instead drops a pooled connection the worker
#: has closed and retries on a fresh socket.
IDLE_LIMIT_S = 10.0

#: Seconds a request's head and body may take to arrive, counted from
#: its first byte. A client that trickles or stalls mid-request is
#: answered 408 and closed, so it cannot hold a socket and a task until
#: a drain cancels them. Processing is not timed by this limit.
READ_LIMIT_S = 10.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: How long a :class:`ServiceThread` waits for its service to bind (a
#: shard boots every worker first) and then to drain.
_START_BOUND_S = 180.0
_JOIN_BOUND_S = 120.0


class _RequestError(Exception):
    """A request the wire layer refuses: answered with ``status`` and closed.

    ``request`` is what was read of it by then: its method, path and
    headers once its head parsed (empty before), timed from the head's
    arrival, or from its first byte when the head never came.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.request: Optional[Request] = None


class Request(NamedTuple):
    """One request read in full, and the connection to answer it on."""

    method: str
    path: str  # the query string stripped
    headers: Dict[str, str]  # names lower-cased
    body: bytes
    started: float  # perf_counter() once the head had arrived
    started_ns: int  # time_ns() at the same moment
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter

    async def respond(
        self,
        status: int,
        payload: bytes,
        headers: Optional[Mapping[str, str]],
        draining: bool,
    ) -> bool:
        """Answer this request; returns whether the connection stays open.

        It closes after a 503, while the service drains, when the client
        asked to close, and when the client has half-closed its side.
        """
        keep = not (
            draining
            or status == 503
            or self.headers.get("connection", "").lower() == "close"
            or self.reader.at_eof()
        )
        self.writer.write(_encode_response(status, payload, headers, keep))
        try:
            await self.writer.drain()
        except ConnectionError:
            pass
        return keep


def _encode_response(
    status: int,
    payload: bytes,
    headers: Optional[Mapping[str, str]],
    keep: bool,
) -> bytes:
    """One response on the wire; ``Connection: close`` unless ``keep``."""
    headers = headers or {}
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {headers.get('Content-Type', 'application/json')}",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in headers.items():
        if name != "Content-Type":
            lines.append(f"{name}: {value}")
    if not keep:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


class _ReadTimer:
    """One request read's one timer: the idle limit until its first byte,
    then the read limit from that byte. It fails the pending read with a
    quiet :class:`ConnectionAbortedError` (idle) or a 408."""

    __slots__ = ("_reader", "_loop", "_handle", "first_byte")

    def __init__(
        self, reader: asyncio.StreamReader, loop: asyncio.AbstractEventLoop
    ) -> None:
        self._reader = reader
        self._loop = loop
        self.first_byte: Optional[float] = None
        self._handle = loop.call_later(IDLE_LIMIT_S, self._expire)

    def _expire(self) -> None:
        if self.first_byte is None:
            self._reader.set_exception(
                ConnectionAbortedError(f"idle for {IDLE_LIMIT_S:g} s")
            )
            return
        left = self.first_byte + READ_LIMIT_S - self._loop.time()
        if left > 0:
            self._handle = self._loop.call_later(left, self._expire)
            return
        self._reader.set_exception(
            _RequestError(
                408,
                "request_timeout",
                f"request not received in full within {READ_LIMIT_S:g} s",
            )
        )

    def cancel(self) -> None:
        self._handle.cancel()


async def _read_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    max_body_bytes: int,
) -> Optional[Request]:
    """The next request off a connection; None once the client is done.

    Raises :class:`_RequestError` for a request to refuse and
    :class:`ConnectionAbortedError` when none began in the idle limit.
    """
    loop = asyncio.get_running_loop()
    timer = _ReadTimer(reader, loop)
    method = path = ""
    headers: Dict[str, str] = {}
    try:
        first = await reader.read(1)
        if not first:
            return None
        timer.first_byte = loop.time()
        started = time.perf_counter()
        started_ns = time.time_ns()
        try:
            head = first + await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _RequestError(
                400, "invalid_request", "headers too large"
            ) from None
        started = time.perf_counter()
        started_ns = time.time_ns()
        try:
            request_line, parsed = _parse_head(head)
            parts = request_line.split(" ")
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                raise ValueError(f"malformed request line {request_line!r}")
            method, path = parts[0].upper(), parts[1].split("?", 1)[0]
            headers = parsed
            length = _content_length(headers)
        except ValueError as error:
            raise _RequestError(400, "invalid_request", str(error)) from None
        if length > max_body_bytes:
            raise _RequestError(
                413,
                "payload_too_large",
                f"body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        # The timer can fire between the last byte's arrival and this
        # task resuming: the read then completed, but at its deadline.
        late = reader.exception()
        if late is not None:
            raise late
    except _RequestError as error:
        error.request = Request(
            method, path, headers, b"", started, started_ns, reader, writer
        )
        raise
    finally:
        timer.cancel()
    return Request(
        method, path, headers, body, started, started_ns, reader, writer
    )


async def write_request(
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    headers: Mapping[str, str],
    body: bytes,
) -> None:
    """Send one request (the router's hop to a worker)."""
    lines = [f"{method} {path} HTTP/1.1", f"Content-Length: {len(body)}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """One response: status, lower-cased headers, exact body.

    A malformed reply raises :class:`ConnectionError`.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    try:
        status_line, headers = _parse_head(head)
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ValueError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length = _content_length(headers)
    except ValueError as error:
        raise ConnectionError(f"malformed response: {error}") from None
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


def _parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """(first line, lower-cased headers) of one message head."""
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


def _content_length(headers: Mapping[str, str]) -> int:
    """The body length; ``ValueError`` unless it is all digits.

    ``int`` alone would pass ``-5`` (or ``+5``, ``1_0``) on to
    ``readexactly``, which raises outside every handler and drops the
    connection without a reply.
    """
    value = headers.get("content-length", "0") or "0"
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"bad Content-Length header {value!r}")
    return int(value)


def _method_not_allowed(allow: str) -> Tuple[int, bytes, Dict[str, str]]:
    return (
        405,
        error_body("method_not_allowed", f"use {allow}"),
        {"Allow": allow},
    )


class Listener:
    """A listening socket and its keep-alive connections.

    ``service`` answers the requests: ``await service.handle(request)``
    returns whether the connection stays open, and a true
    ``service.draining`` closes it after the current response. The
    requests this layer refuses itself go through ``service.ledger``
    (a :class:`~repro.obs.log.RequestLedger`), so the role logs,
    SLO-observes and spans them like the ones it answers.
    """

    def __init__(self, service: Any, max_body_bytes: int) -> None:
        self._service = service
        self._max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[asyncio.Task, None] = {}

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    def stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()

    async def close(self) -> None:
        """Stop accepting, let open connections finish, cancel the rest."""
        self.stop_accepting()
        if self._connections:
            _done, pending = await asyncio.wait(
                set(self._connections), timeout=2.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if self._server is not None:
            await self._server.wait_closed()

    def _refuse(self, error: _RequestError) -> None:
        """Answer a refused request through the role's ledger, like any
        other reply (admit, finish, release); the connection then closes.

        No drain: it would re-raise the reader's 408. Closing the
        connection flushes the reply.
        """
        ledger = self._service.ledger
        record = ledger.admit(error.request)
        try:
            headers = record.headers({})
            error.request.writer.write(  # type: ignore[union-attr]
                _encode_response(
                    error.status,
                    error_body(error.code, str(error)),
                    headers,
                    False,
                )
            )
            ledger.finish(record, error.status, headers)
        finally:
            ledger.release(record)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = None
        try:
            while True:
                try:
                    request = await _read_request(
                        reader, writer, self._max_body_bytes
                    )
                except _RequestError as error:
                    self._refuse(error)
                    break
                if request is None:
                    break
                keep = await self._service.handle(request)
                if not keep or self._service.draining:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            # The client hung up or stayed idle past the limit, or
            # close() cancelled this task: it ends quietly (a cancelled
            # connection task makes asyncio log a traceback on 3.11).
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def _serve_until_stopped(
    service: Any,
    stop_event: Optional[threading.Event],
    ready: Optional[Any],
) -> None:
    """Run ``service`` (``start``/``stop``, ``host``/``port``) on a new
    event loop until SIGINT/SIGTERM or ``stop_event``, then drain it.

    The signal handlers go in before ``start``, so a signal that lands
    once ``ready`` has announced the service (or while it boots) still
    drains it instead of killing the process. A start that fails is
    stopped too, which undoes what it set up (tracer, profiler,
    workers), and then raises.
    """

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stopper: asyncio.Future = loop.create_future()

        def _request_stop() -> None:
            if not stopper.done():
                stopper.set_result(None)

        def _watch(event: threading.Event) -> None:
            event.wait()
            try:
                loop.call_soon_threadsafe(_request_stop)
            except RuntimeError:  # the loop has finished already
                pass

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # not the main thread: stop_event stops it
        if stop_event is not None:
            # A daemon watcher, so a service nobody stops never holds
            # up interpreter exit.
            threading.Thread(
                target=_watch, args=(stop_event,), daemon=True
            ).start()
        try:
            await service.start()
            if ready is not None:
                ready(service.host, service.port)
            await stopper
        finally:
            await service.stop()
            if stop_event is not None:
                stop_event.set()  # releases the watcher

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServiceThread:
    """A service (``start``/``stop``, ``host``/``port``) on its own
    thread and event loop.

    The in-process harness of the tests and the smoke script:
    ``start()`` blocks until the service is bound (a shard's workers
    all ready) and raises if it failed to start; ``stop()`` drains it
    and joins the thread. Usable as a context manager.
    """

    def __init__(self, service: Any) -> None:
        self._service = service
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop = threading.Event()
        self._started = False
        self._error: Optional[Exception] = None

    @property
    def host(self) -> str:
        return self._service.host

    @property
    def port(self) -> int:
        return self._service.port

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=_START_BOUND_S):
            raise RuntimeError(
                f"service did not start within {_START_BOUND_S:g} s"
            )
        if not self._started:
            raise RuntimeError("service failed to start") from self._error
        return self

    def _run(self) -> None:
        def _on_ready(_host: str, _port: int) -> None:
            self._started = True
            self._ready.set()

        try:
            _serve_until_stopped(self._service, self._stop, _on_ready)
        except Exception as error:
            if self._started:
                raise
            self._error = error
        finally:
            self._ready.set()

    def stop(self) -> None:
        """Drain and shut down; safe to call from any thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_BOUND_S)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
