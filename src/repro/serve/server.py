"""The asyncio HTTP/JSON evaluation server (hand-rolled, stdlib-only).

A deliberately small HTTP/1.1 implementation on
``asyncio.start_server`` — request line, headers, ``Content-Length``
bodies, keep-alive — because the service needs exactly six routes and
zero heavy dependencies:

============  ============  ==============================================
method        path          behavior
============  ============  ==============================================
``GET``       /healthz      liveness + draining flag
``GET``       /metrics      the process metrics registry as Prometheus text
``GET``       /debug/obs    live ops snapshot (in-flight, recent, SLOs)
``GET``       /debug/trace  recorded spans as schema-tagged JSON
``POST``      /evaluate     single-design point evaluation (coalesced)
``POST``      /mc           Monte Carlo supply study (coalesced)
``POST``      /splits       multi-process split sweep (single-flight dedup)
``POST``      /scenarios    fused stress-scenario cube (coalesced)
============  ============  ==============================================

POST bodies are JSON; responses are canonical JSON (sorted keys, no
whitespace). Batch metadata never enters a response body — the number of
requests the fused call carried rides in the ``X-Batch-Size`` header —
so a response's bytes are a pure function of its own request, which is
the service's determinism guarantee. The same rule covers the
observability identifiers: ``X-Request-Id`` / ``X-Trace-Id`` response
headers and the inbound ``traceparent`` context
(:mod:`repro.obs.distributed`) never touch a body, so coalesced
responses stay byte-identical to solo ones with tracing enabled.

Failure paths: malformed JSON → 400, unknown route → 404, wrong method
→ 405, oversized body → 413, admission-queue overflow → 429 with
``Retry-After``, draining → 503, per-request deadline (the
``X-Deadline-Ms`` header, or the server default) → 504. Every error
carries a structured ``{"error": {"code", "message"}}`` body.

:class:`ServerThread` wraps the server in a background thread with its
own event loop for tests, benchmarks, and in-process smoke runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs import instrument
from ..obs.distributed import (
    TraceContext,
    mint_request_id,
    mint_trace_context,
    parse_traceparent,
)
from ..obs.log import RequestLogger
from ..obs.metrics import get_registry
from ..obs.profile import SamplingProfiler
from ..obs.slo import SLOTracker
from ..obs.trace import (
    SpanRecord,
    TRACE_SCHEMA,
    Tracer,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)
from .batcher import CoalescingBatcher, QueueFullError, ServerClosingError
from .protocol import (
    BATCHED_ENDPOINTS,
    BadRequestError,
    ServeState,
    canonical_json,
    endpoint_of,
    error_body,
    execute_batch,
    parse_request,
)

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`EvalServer` (CLI flags map 1:1).

    ``batch_threads`` sizes the thread pool that executes fused batches
    (the CLI's ``--batch-threads``; process-level parallelism is the
    shard supervisor's ``--workers``). ``worker_id`` is set only when
    this server runs as one shard worker — it adds worker identity to
    ``/healthz`` and ``/debug/*`` and changes nothing else.

    Observability (all opt-in): ``trace`` installs a bounded process
    tracer at startup (``trace_out`` writes the Chrome trace at stop —
    left empty for shard workers, whose spans the supervisor collects
    over ``/debug/trace`` instead); ``log_json`` appends one JSON line
    per request; ``profile_hz`` starts the sampling profiler
    (``profile_out`` writes collapsed stacks at stop).
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window_ms: float = 10.0
    max_batch: int = 32
    max_queue: int = 256
    batch_threads: int = 1
    deadline_ms: float = 30_000.0
    max_body_bytes: int = 1_048_576
    worker_id: Optional[int] = None
    trace: bool = False
    trace_out: str = ""
    log_json: str = ""
    slo_window_s: float = 300.0
    profile_hz: float = 0.0
    profile_out: str = ""

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch window must be >= 0 ms, got {self.batch_window_ms}"
            )
        if self.deadline_ms < 0:
            raise ValueError(
                f"deadline must be >= 0 ms (0 disables), got "
                f"{self.deadline_ms}"
            )
        if self.slo_window_s <= 0:
            raise ValueError(
                f"SLO window must be > 0 s, got {self.slo_window_s}"
            )
        if self.profile_hz < 0:
            raise ValueError(
                f"profile rate must be >= 0 Hz (0 disables), got "
                f"{self.profile_hz}"
            )


#: Rolling span window a serve-installed tracer keeps (a long-lived
#: worker must not grow without bound).
_TRACE_SPAN_LIMIT = 20_000


class EvalServer:
    """The evaluation service: batcher + HTTP front end on one loop."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        state: Optional[ServeState] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.state = state or ServeState()
        self.host = self.config.host
        self.port = self.config.port
        self.batcher: Optional[CoalescingBatcher] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Dict[asyncio.Task, None] = {}
        self._draining = False
        self.slo = SLOTracker(window_s=self.config.slo_window_s)
        self.logger = RequestLogger(
            path=self.config.log_json or None,
            role=(
                "worker" if self.config.worker_id is not None else "server"
            ),
        )
        self._in_flight: Dict[str, Dict[str, Any]] = {}
        self._profiler: Optional[SamplingProfiler] = None
        self._installed_tracer: Optional[Tracer] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        if self.config.trace and current_tracer() is None:
            self._installed_tracer = install_tracer(
                Tracer(limit=_TRACE_SPAN_LIMIT)
            )
        if self.config.profile_hz > 0:
            self._profiler = SamplingProfiler(
                hz=self.config.profile_hz
            ).start()
        self.batcher = CoalescingBatcher(
            lambda key, payloads: execute_batch(self.state, key, payloads),
            window_s=self.config.batch_window_ms / 1000.0,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            workers=self.config.batch_threads,
            endpoint_of=endpoint_of,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight batches, then close.

        New requests are refused (503) the moment draining starts, every
        already-admitted request still receives its response, and open
        keep-alive connections are closed once quiet.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self.batcher is not None:
            await self.batcher.drain()
        if self._connections:
            done, pending = await asyncio.wait(
                set(self._connections), timeout=2.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if self._server is not None:
            await self._server.wait_closed()
        if self._profiler is not None:
            self._profiler.stop()
            if self.config.profile_out:
                self._profiler.write_collapsed(self.config.profile_out)
            self._profiler = None
        if self._installed_tracer is not None:
            # Only a tracer this server installed is torn down here; a
            # caller-managed tracer (tests, ObsSession) stays put.
            uninstall_tracer()
            if self.config.trace_out:
                self._installed_tracer.write_chrome_trace(
                    self.config.trace_out
                )
            self._installed_tracer = None
        self.logger.close()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = None
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive or self._draining:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            await self._respond(
                writer, 400, error_body("invalid_request", "headers too large")
            )
            return False
        started = time.perf_counter()
        started_ns = time.time_ns()
        try:
            method, path, headers = _parse_head(head)
        except ValueError as error:
            await self._respond(
                writer, 400, error_body("invalid_request", str(error))
            )
            return False
        path = path.split("?", 1)[0]
        endpoint = path.lstrip("/") or "root"
        obs = self._admit(endpoint, headers)

        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            self._in_flight.pop(obs["request_id"], None)
            await self._respond(
                writer,
                400,
                error_body("invalid_request", "bad Content-Length header"),
            )
            return False
        if length > self.config.max_body_bytes:
            await self._respond(
                writer,
                413,
                error_body(
                    "payload_too_large",
                    f"body of {length} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit",
                ),
                close=True,
            )
            self._finish(endpoint, 413, started, started_ns, 0, obs)
            return False
        if length:
            body = await reader.readexactly(length)

        status, payload, extra = await self._route(
            method, path, headers, body, obs
        )
        extra = dict(extra)
        extra.setdefault("X-Request-Id", obs["request_id"])
        ctx: Optional[TraceContext] = obs["ctx"]
        if ctx is not None:
            extra.setdefault("X-Trace-Id", ctx.trace_id)
        keep = (
            headers.get("connection", "").lower() != "close"
            and not self._draining
            and status != 503
        )
        if not keep:
            extra["Connection"] = "close"
        await self._respond(
            writer,
            status,
            payload,
            content_type=extra.pop("Content-Type", "application/json"),
            headers=extra,
            close=not keep,
        )
        batch_size = int(extra.get("X-Batch-Size", 0) or 0)
        self._finish(endpoint, status, started, started_ns, batch_size, obs)
        return keep

    def _admit(self, endpoint: str, headers: Dict[str, str]) -> Dict[str, Any]:
        """Mint/parse per-request observability identity.

        The trace context comes from the inbound ``traceparent`` header
        (the shard router minted it at admission) or is minted fresh
        when this process is the admission point and tracing or request
        logging is on. ``meta`` is the dict the batcher stamps timing
        and batch membership into.
        """
        request_id = headers.get("x-request-id") or mint_request_id()
        ctx = parse_traceparent(headers.get("traceparent"))
        inbound = ctx is not None
        tracing = current_tracer() is not None
        if ctx is None and (tracing or self.logger.active):
            ctx = mint_trace_context(sampled=tracing)
        obs: Dict[str, Any] = {
            "request_id": request_id,
            "ctx": ctx,
            "ctx_inbound": inbound,
            "endpoint": endpoint,
            "meta": {
                "request_id": request_id,
                "trace_id": ctx.trace_id if ctx is not None else "",
            },
        }
        self._in_flight[request_id] = {
            "request_id": request_id,
            "trace_id": ctx.trace_id if ctx is not None else "",
            "endpoint": endpoint,
            "started_unix_ns": time.time_ns(),
        }
        return obs

    def _finish(
        self,
        endpoint: str,
        status: int,
        started: float,
        started_ns: int,
        batch_size: int,
        obs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Per-request accounting: metrics + SLO always, a structured
        log record always (ring; file when configured), a span when
        tracing."""
        elapsed = time.perf_counter() - started
        instrument.record_request(endpoint, status, elapsed)
        self.slo.observe(endpoint, status, elapsed)

        request_id = trace_id = ""
        ctx: Optional[TraceContext] = None
        meta: Dict[str, Any] = {}
        if obs is not None:
            self._in_flight.pop(obs["request_id"], None)
            request_id = obs["request_id"]
            ctx = obs["ctx"]
            trace_id = ctx.trace_id if ctx is not None else ""
            meta = obs["meta"]
        breakdown = _latency_breakdown(meta, elapsed)

        record: Dict[str, Any] = {
            "ts_unix_ns": time.time_ns(),
            "request_id": request_id,
            "trace_id": trace_id,
            "endpoint": endpoint,
            "status": status,
            "latency_ms": round(elapsed * 1000.0, 3),
            "batch_size": batch_size,
            "outcome": _outcome(status),
        }
        if self.config.worker_id is not None:
            record["worker"] = self.config.worker_id
        if breakdown:
            record["breakdown"] = breakdown
        self.logger.log(record)

        tracer = current_tracer()
        if tracer is None or (ctx is not None and not ctx.sampled):
            return
        # Concurrent requests interleave awaits on one thread, so the
        # tracer's thread-local nesting stack cannot scope them; record
        # a parentless span directly and merge it via adopt().
        attributes: Dict[str, Any] = {
            "endpoint": endpoint,
            "status": status,
        }
        if request_id:
            attributes["request_id"] = request_id
        if ctx is not None:
            attributes["trace_id"] = ctx.trace_id
            # Inbound context: the router's span hex is our parent.
            # Self-minted: our own span hex, for downstream stitching.
            key = "parent_ctx" if obs and obs["ctx_inbound"] else "ctx_span"
            attributes[key] = ctx.span_id
        if batch_size:
            attributes["batch_size"] = batch_size
        if meta.get("batch_span_id"):
            attributes["batch_span_id"] = meta["batch_span_id"]
        if self.config.worker_id is not None:
            attributes["worker"] = self.config.worker_id
        attributes.update(breakdown)
        tracer.adopt(
            [
                SpanRecord(
                    name="serve.request",
                    span_id=tracer._next_id(),
                    parent_id=None,
                    start_unix_ns=started_ns,
                    duration_ns=int(elapsed * 1e9),
                    cpu_ns=0,
                    thread_id=threading.get_ident(),
                    process_id=os.getpid(),
                    attributes=attributes,
                    status="ok" if status < 500 else f"error: {status}",
                )
            ]
        )

    # -- routing ---------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        obs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            health: Dict[str, Any] = {
                "status": "draining" if self._draining else "ok"
            }
            if self.config.worker_id is not None:
                health["worker"] = self.config.worker_id
                health["pid"] = os.getpid()
            return 200, canonical_json(health), {}
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            # Burn-rate gauges refresh at scrape time: idle servers pay
            # nothing between scrapes.
            self.slo.publish()
            text = get_registry().to_prometheus_text()
            return (
                200,
                text.encode("utf-8"),
                {"Content-Type": "text/plain; version=0.0.4"},
            )
        if path == "/debug/obs":
            if method != "GET":
                return _method_not_allowed("GET")
            return 200, canonical_json(self.obs_snapshot()), {}
        if path == "/debug/trace":
            if method != "GET":
                return _method_not_allowed("GET")
            tracer = current_tracer()
            data: Dict[str, Any] = (
                tracer.to_jsonable()
                if tracer is not None
                else {"schema": TRACE_SCHEMA, "spans": []}
            )
            data["pid"] = os.getpid()
            data["worker"] = self.config.worker_id
            return 200, canonical_json(data), {}
        endpoint = path.lstrip("/")
        if endpoint in BATCHED_ENDPOINTS:
            if method != "POST":
                return _method_not_allowed("POST")
            return await self._handle_batched(endpoint, headers, body, obs)
        return (
            404,
            error_body("not_found", f"no route for {path!r}"),
            {},
        )

    def obs_snapshot(self) -> Dict[str, Any]:
        """The live ops view behind ``GET /debug/obs``."""
        now_ns = time.time_ns()
        tracer = current_tracer()
        in_flight = sorted(
            (
                {
                    **entry,
                    "age_ms": round(
                        (now_ns - entry["started_unix_ns"]) / 1e6, 3
                    ),
                }
                for entry in list(self._in_flight.values())
            ),
            key=lambda e: -e["age_ms"],
        )
        return {
            "role": (
                "worker" if self.config.worker_id is not None else "server"
            ),
            "worker": self.config.worker_id,
            "pid": os.getpid(),
            "draining": self._draining,
            "tracing": tracer is not None,
            "spans_recorded": (
                len(tracer.spans()) if tracer is not None else 0
            ),
            "profiling": self._profiler is not None,
            "in_flight": in_flight,
            "recent": self.logger.recent(),
            "slo": self.slo.status(),
        }

    async def _handle_batched(
        self,
        endpoint: str,
        headers: Dict[str, str],
        body: bytes,
        obs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            parsed = json.loads(body)
        except ValueError as error:
            return (
                400,
                error_body("invalid_json", f"body is not valid JSON: {error}"),
                {},
            )
        try:
            key, payload = parse_request(self.state, endpoint, parsed)
        except BadRequestError as error:
            return 400, error_body(error.code, str(error)), {}

        deadline_ms = self.config.deadline_ms
        header_deadline = headers.get("x-deadline-ms")
        if header_deadline is not None:
            try:
                deadline_ms = float(header_deadline)
            except ValueError:
                return (
                    400,
                    error_body(
                        "invalid_request",
                        f"X-Deadline-Ms must be a number, "
                        f"got {header_deadline!r}",
                    ),
                    {},
                )

        assert self.batcher is not None
        try:
            future = self.batcher.enqueue(
                key, payload, meta=obs["meta"] if obs is not None else None
            )
        except QueueFullError as error:
            retry_after = max(1, int(self.config.batch_window_ms / 1000.0) + 1)
            return (
                429,
                error_body("queue_full", str(error)),
                {"Retry-After": str(retry_after)},
            )
        except ServerClosingError as error:
            return 503, error_body("draining", str(error)), {}

        try:
            if deadline_ms > 0:
                result, batch_size = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline_ms / 1000.0
                )
            else:
                result, batch_size = await future
        except asyncio.TimeoutError:
            # Tell delivery this slot was abandoned; the rest of the
            # batch is untouched.
            future.cancel()
            instrument.record_rejection("deadline")
            return (
                504,
                error_body(
                    "deadline_exceeded",
                    f"request exceeded its {deadline_ms:g} ms deadline",
                ),
                {},
            )
        except BadRequestError as error:
            return 400, error_body(error.code, str(error)), {}
        except ReproError as error:
            return 400, error_body("invalid_request", str(error)), {}
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            return (
                500,
                error_body("internal", f"{type(error).__name__}: {error}"),
                {},
            )
        return (
            200,
            canonical_json(result),
            {"X-Batch-Size": str(batch_size)},
        )

    # -- response writing ------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (headers or {}).items():
            if name not in ("Content-Type",):
                lines.append(f"{name}: {value}")
        if close and "Connection" not in (headers or {}):
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- blocking entry point (CLI) --------------------------------------------

    def run_forever(
        self,
        stop_event: Optional[threading.Event] = None,
        ready: Optional[Any] = None,
    ) -> None:
        """Serve until SIGINT/SIGTERM (or ``stop_event``), then drain.

        ``ready`` is called with ``(host, port)`` once the socket is
        bound — the CLI uses it to announce the ephemeral port.
        """
        _serve_until_stopped(self, stop_event, ready)


def _serve_until_stopped(
    service: Any,
    stop_event: Optional[threading.Event],
    ready: Optional[Any],
) -> None:
    """Run ``service`` (``start``/``stop``, ``host``/``port``) on a new
    event loop until SIGINT/SIGTERM or ``stop_event``, then drain it.

    The signal handlers go in before ``start``, so a signal that lands
    once ``ready`` has announced the service (or while it boots) still
    drains it instead of killing the process.
    """

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stopper: asyncio.Future = loop.create_future()

        def _request_stop() -> None:
            if not stopper.done():
                stopper.set_result(None)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        await service.start()
        if ready is not None:
            ready(service.host, service.port)
        waiter = None
        if stop_event is not None:
            waiter = loop.run_in_executor(None, stop_event.wait)
            waiter.add_done_callback(lambda _: _request_stop())
        try:
            await stopper
        finally:
            await service.stop()
            if waiter is not None and stop_event is not None:
                stop_event.set()
                await waiter

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


def _outcome(status: int) -> str:
    """Log-record outcome classification for one response status."""
    if status < 400:
        return "ok"
    if status == 429:
        return "rejected"
    if status == 503:
        return "draining"
    if status == 504:
        return "deadline"
    if status < 500:
        return "client_error"
    return "server_error"


def _latency_breakdown(
    meta: Dict[str, Any], elapsed_s: float
) -> Dict[str, float]:
    """Queue / batch-wait / compute / serialize split from the batcher's
    ``perf_counter_ns`` stamps (empty for requests that never enqueued).

    ``serialize_ms`` is the remainder — parse, response write, and
    event-loop scheduling — clamped at zero against clock skew between
    the loop thread and the executor thread.
    """
    stamps = [
        meta.get(key)
        for key in ("t_enqueue", "t_flush", "t_exec_start", "t_exec_end")
    ]
    if any(stamp is None for stamp in stamps):
        return {}
    t_enqueue, t_flush, t_exec_start, t_exec_end = stamps
    queue_ms = max(0.0, (t_flush - t_enqueue) / 1e6)
    batch_wait_ms = max(0.0, (t_exec_start - t_flush) / 1e6)
    compute_ms = max(0.0, (t_exec_end - t_exec_start) / 1e6)
    total_ms = elapsed_s * 1000.0
    serialize_ms = max(
        0.0, total_ms - queue_ms - batch_wait_ms - compute_ms
    )
    return {
        "queue_ms": round(queue_ms, 3),
        "batch_wait_ms": round(batch_wait_ms, 3),
        "compute_ms": round(compute_ms, 3),
        "serialize_ms": round(serialize_ms, 3),
    }


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """(method, path, lower-cased headers) from one request head."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 total
        raise ValueError(f"undecodable request head: {error}") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"malformed header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


def _method_not_allowed(allow: str) -> Tuple[int, bytes, Dict[str, str]]:
    return (
        405,
        error_body("method_not_allowed", f"use {allow}"),
        {"Allow": allow},
    )


class ServerThread:
    """An :class:`EvalServer` on a dedicated thread + event loop.

    The in-process harness used by tests, benchmarks, and the smoke
    client: ``start()`` blocks until the ephemeral port is bound,
    ``stop()`` drains gracefully and joins the thread. Usable as a
    context manager.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        state: Optional[ServeState] = None,
    ) -> None:
        self.server = EvalServer(config=config, state=state)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                "server failed to start"
            ) from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 30 s")
        return self

    def _run(self) -> None:
        async def _main() -> None:
            loop = asyncio.get_running_loop()
            self._loop = loop
            self._stop_future: asyncio.Future = loop.create_future()
            try:
                await self.server.start()
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            await self._stop_future
            await self.server.stop()

        asyncio.run(_main())
        self._stopped.set()

    def stop(self) -> None:
        """Drain and shut down; safe to call from any thread, once."""
        loop = self._loop
        if loop is None or self._stopped.is_set():
            return

        def _request() -> None:
            if not self._stop_future.done():
                self._stop_future.set_result(None)

        try:
            loop.call_soon_threadsafe(_request)
        except RuntimeError:  # loop already closed
            pass
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = [
    "EvalServer",
    "ServerConfig",
    "ServerThread",
]
