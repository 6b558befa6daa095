"""The asyncio HTTP/JSON evaluation server (hand-rolled, stdlib-only).

The worker role of ``ttm-cas serve``: HTTP/1.1 on
``asyncio.start_server`` through the one wire layer
(:mod:`repro.serve.wire`, shared with the shard router), because the
service needs exactly eight routes and zero heavy dependencies:

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

Failure paths: malformed request line, header or ``Content-Length`` →
400, malformed JSON → 400, unknown route → 404, wrong method → 405,
request not received in full within the wire layer's read limit → 408,
oversized body → 413, admission-queue overflow → 429 with
``Retry-After``, draining → 503, per-request deadline (the
``X-Deadline-Ms`` header, or the server default) → 504. Every error
carries a structured ``{"error": {"code", "message"}}`` body. A
connection that stays idle past the wire layer's idle limit is closed
without a reply.

:class:`ServerThread` wraps the server in a background thread with its
own event loop for tests and in-process smoke runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
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
from .common import (
    _TRACE_SPAN_LIMIT,
    BATCHED_ENDPOINTS,
    BadRequestError,
    ServerConfig,
    _outcome,
    canonical_json,
    error_body,
)
from .protocol import ServeState, endpoint_of, execute_batch, parse_request
from .wire import (
    Listener,
    Request,
    ServiceThread,
    _method_not_allowed,
    _serve_until_stopped,
)


#: ``Retry-After`` seconds on a 429: admission frees a slot as soon as
#: any running batch is delivered, so the shortest whole-second hint.
_RETRY_AFTER_S = 1


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
        self._listener = Listener(self, self.config.max_body_bytes)
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
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            workers=self.config.batch_threads,
            endpoint_of=endpoint_of,
        )
        self.host, self.port = await self._listener.start(
            self.config.host, self.config.port
        )

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight batches, then close.

        New requests are refused (503) the moment draining starts, every
        already-admitted request still receives its response, and open
        keep-alive connections are closed once quiet.
        """
        self._draining = True
        self._listener.stop_accepting()
        if self.batcher is not None:
            await self.batcher.drain()
        await self._listener.close()
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

    # -- request handling ------------------------------------------------------

    async def handle(self, request: Request) -> bool:
        """Answer one request; returns whether to keep the connection."""
        endpoint = request.path.lstrip("/") or "root"
        obs = self._admit(endpoint, request.headers)
        try:
            status, payload, extra = await self._route(
                request.method,
                request.path,
                request.headers,
                request.body,
                obs,
            )
            extra = dict(extra)
            extra.setdefault("X-Request-Id", obs["request_id"])
            ctx: Optional[TraceContext] = obs["ctx"]
            if ctx is not None:
                extra.setdefault("X-Trace-Id", ctx.trace_id)
            keep = await request.respond(
                status, payload, extra, self._draining
            )
            batch_size = int(extra.get("X-Batch-Size", 0) or 0)
            self._finish(
                endpoint,
                status,
                request.started,
                request.started_ns,
                batch_size,
                obs,
            )
            return keep
        finally:
            # Every exit retires the /debug/obs entry, a request
            # cancelled by a drain included.
            self._in_flight.pop(obs["request_id"], None)

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
            return (
                429,
                error_body("queue_full", str(error)),
                {"Retry-After": str(_RETRY_AFTER_S)},
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


class ServerThread(ServiceThread):
    """An :class:`EvalServer` on a dedicated thread + event loop.

    The in-process harness used by the tests and the smoke client
    (see :class:`~repro.serve.wire.ServiceThread`).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        state: Optional[ServeState] = None,
    ) -> None:
        self.server = EvalServer(config=config, state=state)
        super().__init__(self.server)


__all__ = [
    "EvalServer",
    "ServerConfig",
    "ServerThread",
]
