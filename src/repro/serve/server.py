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
responses stay byte-identical to solo ones with tracing enabled. Each
request is admitted, finished and released through the role's one
:class:`~repro.obs.log.RequestLedger` (shared with the router): its id,
trace context, ``/debug/obs`` in-flight entry, log line, SLO observation
and ``serve.request`` span come from one record, which the batcher
stamps as the request's ``meta``.

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
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..obs import instrument
from ..obs.log import RequestLedger, RequestRecord
from ..obs.metrics import get_registry
from ..obs.profile import SamplingProfiler
from ..obs.trace import TRACE_SCHEMA, current_tracer
from .batcher import CoalescingBatcher, QueueFullError, ServerClosingError
from .common import (
    BATCHED_ENDPOINTS,
    BadRequestError,
    ServerConfig,
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
        self.ledger = RequestLedger(
            "worker" if self.config.worker_id is not None else "server",
            log_path=self.config.log_json,
            slo_window_s=self.config.slo_window_s,
            trace=self.config.trace,
            worker=self.config.worker_id,
        )
        self._profiler: Optional[SamplingProfiler] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        self.ledger.start()
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
        tracer = self.ledger.stop()
        if tracer is not None and self.config.trace_out:
            tracer.write_chrome_trace(self.config.trace_out)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- request handling ------------------------------------------------------

    async def handle(self, request: Request) -> bool:
        """Answer one request; returns whether to keep the connection."""
        record = self.ledger.admit(request)
        try:
            status, payload, extra = await self._route(request, record)
            headers = record.headers(extra)
            keep = await request.respond(
                status, payload, headers, self._draining
            )
            elapsed = self.ledger.finish(record, status, headers)
            instrument.record_request(record.endpoint, status, elapsed)
            return keep
        finally:
            self.ledger.release(record)

    # -- routing ---------------------------------------------------------------

    async def _route(
        self, request: Request, record: RequestRecord
    ) -> Tuple[int, bytes, Dict[str, str]]:
        method, path = request.method, request.path
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
            self.ledger.slo.publish()
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
        if record.endpoint in BATCHED_ENDPOINTS:
            if method != "POST":
                return _method_not_allowed("POST")
            return await self._handle_batched(request, record)
        return (
            404,
            error_body("not_found", f"no route for {path!r}"),
            {},
        )

    def obs_snapshot(self) -> Dict[str, Any]:
        """The live ops view behind ``GET /debug/obs``."""
        tracer = current_tracer()
        return {
            "role": self.ledger.role,
            "worker": self.config.worker_id,
            "pid": os.getpid(),
            "draining": self._draining,
            "tracing": tracer is not None,
            "spans_recorded": (
                len(tracer.spans()) if tracer is not None else 0
            ),
            "profiling": self._profiler is not None,
            **self.ledger.snapshot(),
        }

    async def _handle_batched(
        self, request: Request, record: RequestRecord
    ) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            parsed = json.loads(request.body)
        except (ValueError, RecursionError) as error:
            # A body nested past the parser's recursion limit is no more
            # JSON this server reads than a truncated one.
            return (
                400,
                error_body("invalid_json", f"body is not valid JSON: {error}"),
                {},
            )
        try:
            key, payload = parse_request(self.state, record.endpoint, parsed)
        except BadRequestError as error:
            return 400, error_body(error.code, str(error)), {}
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            return _internal(error)

        deadline_ms = self.config.deadline_ms
        header_deadline = request.headers.get("x-deadline-ms")
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
            future = self.batcher.enqueue(key, payload, meta=record)
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
            return _internal(error)
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


def _internal(error: Exception) -> Tuple[int, bytes, Dict[str, str]]:
    """The 500 reply to an error nothing more specific caught."""
    return (
        500,
        error_body("internal", f"{type(error).__name__}: {error}"),
        {},
    )


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
