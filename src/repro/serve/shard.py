"""Horizontally sharded serve: a prefork worker pool with sticky routes.

One :class:`~repro.serve.server.EvalServer` runs on one asyncio loop and
therefore one core. This module scales the service across processes
while keeping every guarantee PR 7's coalescing service makes:

* **Prefork worker pool** — a parent supervisor spawns N worker
  processes, each a full ``EvalServer`` (own loop, own batcher, own
  metrics registry) bound to an ephemeral loopback port.
* **Sticky routing** — the parent accepts the public socket and
  forwards each request to the worker chosen by rendezvous hashing of
  :func:`routing_key`, a cheap shadow of the batcher's group key
  computed straight from the JSON body. Requests the batcher *could*
  coalesce always share a routing key, so they land on the same worker
  and fuse there — which is exactly what preserves the byte-identity
  contract under sharding (a group split across workers would still be
  correct, but would coalesce less).
* **Aggregated observability** — ``GET /metrics`` fans out to every
  worker and merges the per-worker Prometheus dumps (each tagged
  ``worker="N"``, the router's own registry tagged
  ``worker="router"``); ``GET /healthz`` reports per-worker liveness,
  pid, and restart count; ``GET /debug/obs`` is the
  fleet-wide live ops snapshot and ``GET /debug/trace`` merges every
  worker's recorded spans with the router's own, so one request's
  trace — router admission, worker handling, batch membership, engine
  kernels — stitches into a single tree
  (:func:`repro.obs.distributed.stitch_trace`).
* **Trace propagation** — with tracing on, the router mints a
  ``traceparent`` context per request at admission and forwards it
  (plus ``X-Request-Id``) on the worker hop; at drain it collects
  every worker's spans over ``/debug/trace`` and writes one Chrome
  trace with a distinct process lane per worker.
* **Lifecycle** — dead workers are respawned with exponential backoff;
  SIGTERM/SIGINT triggers a rolling drain: new requests are refused
  with 503 while every accepted request (in any worker) completes, then
  workers are terminated one at a time.

``--workers 1`` never enters this module — the CLI runs today's
single-process server unchanged.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..engine.requests import knob_signature
from ..obs import instrument
from ..obs.distributed import (
    TraceContext,
    mint_request_id,
    mint_trace_context,
    parse_traceparent,
)
from ..obs.log import RequestLogger
from ..obs.metrics import get_registry, merge_prometheus_texts
from ..obs.slo import SLOTracker
from ..obs.trace import (
    SpanRecord,
    TRACE_SCHEMA,
    Tracer,
    chrome_trace_from_spans,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)
from .protocol import (
    BATCHED_ENDPOINTS,
    DEFAULT_N_CHIPS,
    SPEC_KNOBS,
    STUDY_DEFAULTS,
    BadRequestError,
    ServeState,
    canonical_json,
    error_body,
    normalize_stress_selector,
)
from .server import (
    _TRACE_SPAN_LIMIT,
    ServerConfig,
    _outcome,
    _parse_head,
    _serve_until_stopped,
)

#: How often the supervisor checks worker liveness (seconds).
_MONITOR_INTERVAL_S = 0.2

#: Per-worker fan-out timeout for /metrics and /healthz aggregation.
_FANOUT_TIMEOUT_S = 5.0

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


# -- sticky routing ----------------------------------------------------------


def _route_number(value: Any, default: float) -> Any:
    """Mirror the protocol's ``_number`` defaulting without validation.

    Valid numeric fields coerce to float exactly like the parser does
    (so ``1e7`` and ``10000000`` route identically); invalid values pass
    through untouched — the worker will reject them with a 400, so their
    route only needs to be deterministic, not meaningful.
    """
    if value is None:
        return default
    if isinstance(value, bool):
        return ["bool", value]
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _route_study(
    parsed: Mapping[str, Any], flags: Sequence[str]
) -> List[Any]:
    """A study body's sample count, seed, ``flags`` and spec knobs.

    Omitted fields default from :data:`STUDY_DEFAULTS`, exactly as in
    the /mc and /scenarios parsers.
    """
    return [
        parsed.get("samples", STUDY_DEFAULTS["samples"]),
        parsed.get("seed", STUDY_DEFAULTS["seed"]),
        *(bool(parsed.get(flag, STUDY_DEFAULTS[flag])) for flag in flags),
        *(
            _route_number(parsed.get(name), STUDY_DEFAULTS[name])
            for name in SPEC_KNOBS
        ),
    ]


def _signature_jsonable(signature: Tuple[object, ...]) -> List[Any]:
    """Encode a :func:`knob_signature` canonically (frozenset -> sorted)."""
    kind = signature[0]
    encoded: Any = (
        ["nodes", sorted(kind)] if isinstance(kind, frozenset) else kind
    )
    return [encoded, *signature[1:]]


def routing_key(endpoint: str, body: bytes) -> bytes:
    """The sticky-routing key of one request (a batcher-group shadow).

    Consistency contract, pinned by ``tests/serve/test_shard.py``: two
    requests the worker-side batcher would put in one group always
    produce equal routing keys, so the group is never split across
    workers. The key is deliberately *coarser* than the batcher key for
    ``/evaluate`` (it ignores nothing) and exactly as fine for ``/mc``,
    ``/scenarios``, and ``/splits``. Computed from the raw JSON alone — no design
    resolution, no scenario validation — so the router stays cheap, and
    malformed bodies just route *somewhere* deterministic and collect
    their 400 from the worker.
    """
    try:
        parsed = json.loads(body)
    except ValueError:
        parsed = None
    if not isinstance(parsed, Mapping):
        return b"opaque:" + endpoint.encode() + b":" + body[:128]
    scenario = str(parsed.get("scenario", "nominal"))
    if endpoint == "evaluate":
        signature = knob_signature(
            parsed.get("capacity"),
            parsed.get("queue_weeks"),
            parsed.get("d0_scale"),
            parsed.get("wafer_rate_scale"),
        )
        return canonical_json(
            ["evaluate", scenario, _signature_jsonable(signature)]
        )
    if endpoint == "mc":
        return canonical_json(
            ["mc", scenario, *_route_study(parsed, ("with_cost",))]
        )
    if endpoint == "scenarios":
        try:
            selector: Any = list(
                normalize_stress_selector(parsed.get("scenarios"))
            )
        except BadRequestError:
            # Malformed selectors still route *somewhere* deterministic
            # and collect their 400 from the worker.
            selector = ["opaque", repr(parsed.get("scenarios"))]
        flags = ("with_cost", "correlated")
        return canonical_json(
            ["scenarios", scenario, selector, *_route_study(parsed, flags)]
        )
    if endpoint == "splits":
        spec = parsed.get("design", "a11")
        if isinstance(spec, str):
            label: Any = spec
        elif isinstance(spec, Mapping):
            label = str(spec.get("library"))
            if "cores" in spec:
                label = f"{label}:{spec['cores']}"
        else:
            label = ["opaque", str(type(spec).__name__)]
        pairs = parsed.get("pairs")
        if isinstance(pairs, (list, tuple)):
            pairs = [
                [str(item[0]), str(item[1])]
                if isinstance(item, (list, tuple)) and len(item) == 2
                else ["opaque"]
                for item in pairs
            ]
        else:
            pairs = ["opaque"]
        return canonical_json(
            [
                "splits",
                scenario,
                label,
                pairs,
                _route_number(parsed.get("n_chips"), DEFAULT_N_CHIPS),
                bool(parsed.get("refine", False)),
                bool(parsed.get("with_cas", True)),
            ]
        )
    return canonical_json(["other", endpoint, scenario])


def rendezvous_worker(key: bytes, slots: Sequence[int]) -> int:
    """Pick one worker slot by highest-random-weight (rendezvous) hash.

    Deterministic across processes (BLAKE2b, no ``PYTHONHASHSEED``
    dependence), so benches and tests can predict routes; minimal
    disruption when a slot dies — only that slot's keys move.
    """
    if not slots:
        raise ValueError("rendezvous over an empty worker set")
    best_slot = slots[0]
    best_score = b""
    for slot in slots:
        score = hashlib.blake2b(
            b"%d|" % slot + key, digest_size=8
        ).digest()
        if score > best_score:
            best_score = score
            best_slot = slot
    return best_slot


# -- worker process ----------------------------------------------------------


def _worker_main(worker_id: int, config: ServerConfig, conn) -> None:
    """Entry point of one shard worker process (spawn-safe).

    Boots a full :class:`EvalServer` on an ephemeral loopback port,
    reports ``(host, port, pid)`` back through ``conn``, and serves until
    SIGTERM/SIGINT *or* until the pipe hits EOF — the parent holds its
    end open for the worker's lifetime, so a killed parent can never
    leave orphaned workers behind.
    """
    from .server import EvalServer

    stop_event = threading.Event()

    def _watch_parent() -> None:
        try:
            conn.recv()
        except (EOFError, OSError):
            pass
        stop_event.set()

    threading.Thread(
        target=_watch_parent, name="shard-parent-watch", daemon=True
    ).start()

    server = EvalServer(config=config, state=ServeState())

    def _ready(host: str, port: int) -> None:
        try:
            conn.send(("ready", host, port, os.getpid()))
        except (BrokenPipeError, OSError):  # parent died during boot
            stop_event.set()

    server.run_forever(stop_event=stop_event, ready=_ready)


@dataclass
class _Worker:
    """Supervisor-side record of one worker slot."""

    slot: int
    process: Any = None
    conn: Any = None
    host: str = "127.0.0.1"
    port: int = 0
    pid: int = 0
    restarts: int = 0
    ready: bool = False
    idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = field(
        default_factory=list
    )

    def alive(self) -> bool:
        return (
            self.ready
            and self.process is not None
            and self.process.is_alive()
        )


class WorkerUnavailableError(Exception):
    """The chosen worker could not serve the forwarded request."""


# -- supervisor --------------------------------------------------------------


@dataclass(frozen=True)
class ShardConfig:
    """Tunables for one :class:`ShardSupervisor`.

    ``server`` is the per-worker template: its batching knobs are used
    verbatim, while host/port/worker_id are overridden per worker
    (workers always bind ephemeral loopback ports; only the supervisor
    listens on ``host:port``). Worker-side ``trace_out``/``profile_out``
    are also overridden: the supervisor collects every worker's spans at
    drain and writes the single merged Chrome trace to ``trace_out``
    here, and per-worker profiles get a ``.workerN`` suffix so they
    never clobber each other. ``workers=0`` resolves to
    ``os.cpu_count()``.
    """

    workers: int = 0
    host: str = "127.0.0.1"
    port: int = 0
    server: ServerConfig = field(default_factory=ServerConfig)
    drain_grace_s: float = 10.0
    worker_start_timeout_s: float = 120.0
    respawn_backoff_s: float = 0.5
    respawn_backoff_cap_s: float = 15.0
    trace_out: str = ""

    def resolved_workers(self) -> int:
        count = self.workers or (os.cpu_count() or 1)
        if count < 1:
            raise ValueError(f"need at least 1 worker, got {count}")
        return count


class ShardSupervisor:
    """Parent process: sticky router + worker pool."""

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        self.config = config or ShardConfig()
        self.host = self.config.host
        self.port = self.config.port
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[asyncio.Task, None] = {}
        self._monitor_task: Optional[asyncio.Task] = None
        self._respawn_tasks: Dict[int, asyncio.Task] = {}
        self._draining = False
        self._in_flight = 0
        # Router-side observability: its own SLO window and request log
        # (role="router" — the end-to-end view including the forward
        # hop), in-flight request records for /debug/obs, and a tracer
        # installed only when the template asks for tracing and none is
        # already active in this process.
        self.slo = SLOTracker(window_s=self.config.server.slo_window_s)
        self.logger = RequestLogger(
            path=self.config.server.log_json or None, role="router"
        )
        self._in_flight_requests: Dict[str, Dict[str, Any]] = {}
        self._installed_tracer: Optional[Tracer] = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def workers(self) -> Tuple[_Worker, ...]:
        return tuple(self._workers)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Boot every worker, then bind the public port."""
        if self.config.server.trace and current_tracer() is None:
            self._installed_tracer = Tracer(limit=_TRACE_SPAN_LIMIT)
            install_tracer(self._installed_tracer)
        count = self.config.resolved_workers()
        self._workers = [_Worker(slot=slot) for slot in range(count)]
        for worker in self._workers:
            self._spawn_process(worker)
        await asyncio.gather(
            *(self._wait_ready(worker) for worker in self._workers)
        )
        instrument.set_workers_alive(
            sum(1 for w in self._workers if w.alive())
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        self._monitor_task = asyncio.create_task(self._monitor())

    def _spawn_process(self, worker: _Worker) -> None:
        """Start one worker process."""
        parent_conn, child_conn = self._ctx.Pipe()
        template = self.config.server
        config = replace(
            template,
            host="127.0.0.1",
            port=0,
            worker_id=worker.slot,
            # The supervisor collects worker spans over /debug/trace at
            # drain and writes the one merged Chrome trace itself;
            # profiles split per worker so they never clobber.
            trace_out="",
            profile_out=(
                f"{template.profile_out}.worker{worker.slot}"
                if template.profile_out
                else ""
            ),
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker.slot, config, child_conn),
            name=f"shard-worker-{worker.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own copy
        worker.process = process
        worker.conn = parent_conn
        worker.ready = False

    async def _wait_ready(self, worker: _Worker) -> None:
        """Block (without blocking the loop) until a worker reports in."""
        loop = asyncio.get_running_loop()
        timeout = self.config.worker_start_timeout_s
        conn = worker.conn

        def _recv():
            if conn.poll(timeout):
                return conn.recv()
            raise TimeoutError(
                f"worker {worker.slot} did not report ready within "
                f"{timeout:g}s"
            )

        try:
            message = await loop.run_in_executor(None, _recv)
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"worker {worker.slot} died during startup"
            ) from error
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise RuntimeError(
                f"worker {worker.slot} sent unexpected handshake "
                f"{message!r}"
            )
        _tag, worker.host, worker.port, worker.pid = message
        worker.ready = True

    async def stop(self) -> None:
        """Rolling drain: finish accepted work, then stop workers in turn.

        New requests are refused (503) the moment draining starts.
        Every request already forwarded completes — the router waits for
        its own in-flight count, and each worker's SIGTERM drain waits
        for its admitted batches — then workers are terminated one at a
        time, each reaped before the next.
        """
        # The listener stays open while draining: clients that connect
        # mid-drain get an explicit 503/draining, not a refused socket.
        self._draining = True
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        for task in list(self._respawn_tasks.values()):
            task.cancel()
        self._respawn_tasks.clear()
        # Workers are still up: collect their spans *now* so the merged
        # Chrome trace (one process lane per worker) can be written
        # before the pool is torn down. Export must never block the
        # drain, so failures are swallowed.
        # Export keys off the *live* tracer, not ownership: when an
        # outer harness installed the process-global tracer, the router
        # spans landed there and the merged trace is still writable.
        if self.config.trace_out and current_tracer() is not None:
            try:
                merged = await self._aggregate_trace()
                chrome = chrome_trace_from_spans(
                    merged["spans"],
                    process_names={
                        int(pid): name
                        for pid, name in merged["process_names"].items()
                    },
                )
                with open(
                    self.config.trace_out, "w", encoding="utf-8"
                ) as handle:
                    json.dump(chrome, handle, indent=2, default=str)
                    handle.write("\n")
            except Exception:
                pass
        for worker in self._workers:
            await self._stop_worker(worker)
        instrument.set_workers_alive(0)
        if self._server is not None:
            self._server.close()
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
        if self._installed_tracer is not None:
            # Only uninstall what we installed — an outer harness (obs
            # session, test fixture) may own the process-global tracer.
            if current_tracer() is self._installed_tracer:
                uninstall_tracer()
            self._installed_tracer = None
        self.logger.close()

    async def _stop_worker(self, worker: _Worker) -> None:
        """SIGTERM one worker, wait out its drain, escalate, reap."""
        await self._close_idle(worker)
        process = worker.process
        if process is None:
            self._release_worker(worker)
            return
        loop = asyncio.get_running_loop()
        if process.is_alive():
            try:
                os.kill(process.pid, signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass
            await loop.run_in_executor(
                None, process.join, self.config.drain_grace_s
            )
        if process.is_alive():  # drain overran its grace: escalate
            process.kill()
            await loop.run_in_executor(None, process.join, 5.0)
        worker.ready = False
        self._release_worker(worker)

    def _release_worker(self, worker: _Worker) -> None:
        """Reap-side cleanup: close the handshake pipe."""
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None

    async def _close_idle(self, worker: _Worker) -> None:
        idle, worker.idle = worker.idle, []
        for _reader, writer in idle:
            writer.close()

    # -- worker supervision --------------------------------------------------

    async def _monitor(self) -> None:
        """Detect dead workers and schedule their respawn with backoff."""
        while not self._draining:
            await asyncio.sleep(_MONITOR_INTERVAL_S)
            for worker in self._workers:
                if (
                    worker.ready
                    and worker.process is not None
                    and not worker.process.is_alive()
                    and worker.slot not in self._respawn_tasks
                ):
                    worker.ready = False
                    self._respawn_tasks[worker.slot] = asyncio.create_task(
                        self._respawn(worker)
                    )
            instrument.set_workers_alive(
                sum(1 for w in self._workers if w.alive())
            )

    async def _respawn(self, worker: _Worker) -> None:
        """Reap one dead worker and bring up its replacement."""
        loop = asyncio.get_running_loop()
        try:
            await self._close_idle(worker)
            if worker.process is not None:
                await loop.run_in_executor(None, worker.process.join, 5.0)
            self._release_worker(worker)
            instrument.record_respawn(worker.slot)
            backoff = min(
                self.config.respawn_backoff_s * (2 ** worker.restarts),
                self.config.respawn_backoff_cap_s,
            )
            worker.restarts += 1
            await asyncio.sleep(backoff)
            if self._draining:
                return
            self._spawn_process(worker)
            await self._wait_ready(worker)
        except asyncio.CancelledError:
            raise
        except Exception:
            # Startup failed (e.g. mid-shutdown); the monitor will not
            # retry until the slot is marked ready again, so schedule
            # another attempt unless we are draining.
            if not self._draining:
                await asyncio.sleep(self.config.respawn_backoff_s)
                self._respawn_tasks.pop(worker.slot, None)
                worker.ready = True  # let the monitor re-detect the death
                return
        finally:
            self._respawn_tasks.pop(worker.slot, None)

    # -- forwarding ----------------------------------------------------------

    async def _acquire(
        self, worker: _Worker
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """A connection to one worker: pooled when possible, else fresh.

        Returns ``(reader, writer, pooled)`` — ``pooled`` tells the
        forwarder a failure may just be a stale keep-alive connection
        worth one retry on a fresh socket.
        """
        while worker.idle:
            reader, writer = worker.idle.pop()
            if not writer.is_closing():
                return reader, writer, True
            writer.close()
        reader, writer = await asyncio.open_connection(
            worker.host, worker.port
        )
        return reader, writer, False

    async def _forward(
        self,
        worker: _Worker,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Relay one request to a worker over its keep-alive pool."""
        for attempt in (0, 1):
            try:
                reader, writer, pooled = await self._acquire(worker)
            except (ConnectionError, OSError) as error:
                raise WorkerUnavailableError(
                    f"worker {worker.slot} is unreachable: {error}"
                ) from error
            try:
                lines = [
                    f"{method} {path} HTTP/1.1",
                    f"Host: {worker.host}:{worker.port}",
                    f"Content-Length: {len(body)}",
                ]
                for name in (
                    "content-type",
                    "x-deadline-ms",
                    "traceparent",
                    "x-request-id",
                ):
                    value = headers.get(name)
                    if value is not None:
                        lines.append(f"{name}: {value}")
                writer.write(
                    ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                    + body
                )
                await writer.drain()
                status, response_headers, payload = await _read_response(
                    reader
                )
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                OSError,
            ) as error:
                writer.close()
                if pooled and attempt == 0:
                    continue  # stale keep-alive: retry on a fresh socket
                raise WorkerUnavailableError(
                    f"worker {worker.slot} dropped the connection: {error}"
                ) from error
            if response_headers.get("connection", "").lower() == "close":
                writer.close()
            else:
                worker.idle.append((reader, writer))
            return status, response_headers, payload
        raise WorkerUnavailableError(  # pragma: no cover - loop returns
            f"worker {worker.slot} unavailable"
        )

    def _alive_slots(self) -> List[int]:
        return [w.slot for w in self._workers if w.alive()]

    # -- HTTP front end ------------------------------------------------------

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
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            await _write_response(
                writer,
                400,
                error_body("invalid_request", "headers too large"),
                close=True,
            )
            return False
        try:
            method, path, headers = _parse_head(head)
        except ValueError as error:
            await _write_response(
                writer,
                400,
                error_body("invalid_request", str(error)),
                close=True,
            )
            return False
        path = path.split("?", 1)[0]

        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            await _write_response(
                writer,
                400,
                error_body("invalid_request", "bad Content-Length header"),
                close=True,
            )
            return False
        max_body = self.config.server.max_body_bytes
        if length > max_body:
            await _write_response(
                writer,
                413,
                error_body(
                    "payload_too_large",
                    f"body of {length} bytes exceeds the "
                    f"{max_body}-byte limit",
                ),
                close=True,
            )
            return False
        if length:
            body = await reader.readexactly(length)

        status, payload, extra = await self._route(
            method, path, headers, body
        )
        keep = (
            headers.get("connection", "").lower() != "close"
            and not self._draining
            and status != 503
        )
        await _write_response(
            writer,
            status,
            payload,
            content_type=extra.pop("Content-Type", "application/json"),
            headers=extra,
            close=not keep,
        )
        return keep

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            return 200, canonical_json(await self._aggregate_healthz()), {}
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            text = await self._aggregate_metrics()
            return (
                200,
                text.encode("utf-8"),
                {"Content-Type": "text/plain; version=0.0.4"},
            )
        if path == "/debug/obs":
            if method != "GET":
                return _method_not_allowed("GET")
            return 200, canonical_json(await self._aggregate_obs()), {}
        if path == "/debug/trace":
            if method != "GET":
                return _method_not_allowed("GET")
            return 200, canonical_json(await self._aggregate_trace()), {}
        endpoint = path.lstrip("/")
        if endpoint not in BATCHED_ENDPOINTS:
            return 404, error_body("not_found", f"no route for {path!r}"), {}
        if method != "POST":
            return _method_not_allowed("POST")
        if self._draining:
            instrument.record_rejection("draining")
            return (
                503,
                error_body("draining", "server is draining"),
                {},
            )
        slots = self._alive_slots()
        if not slots:
            return (
                503,
                error_body(
                    "worker_unavailable", "no live workers to serve this"
                ),
                {},
            )
        slot = rendezvous_worker(routing_key(endpoint, body), slots)
        worker = self._workers[slot]
        instrument.record_route(slot)
        # Admission: every routed request gets a request id here (the
        # worker echoes an inbound one rather than minting its own) and,
        # when tracing or logging is on, a trace context whose span id
        # becomes the worker-side span's parent — that is the stitch
        # point of the distributed trace. Inbound client contexts are
        # honored so an upstream caller's trace continues through us.
        started = time.perf_counter()
        started_ns = time.time_ns()
        tracer = current_tracer()
        request_id = headers.get("x-request-id") or mint_request_id()
        ctx = parse_traceparent(headers.get("traceparent"))
        if ctx is None and (tracer is not None or self.logger.active):
            ctx = mint_trace_context(sampled=tracer is not None)
        forward_headers: Dict[str, str] = dict(headers)
        forward_headers["x-request-id"] = request_id
        if ctx is not None:
            forward_headers["traceparent"] = ctx.to_traceparent()
        self._in_flight += 1
        self._in_flight_requests[request_id] = {
            "request_id": request_id,
            "trace_id": ctx.trace_id if ctx is not None else "",
            "endpoint": endpoint,
            "worker": slot,
            "started_unix_ns": started_ns,
        }
        response_headers: Dict[str, str] = {}
        try:
            try:
                status, response_headers, payload = await self._forward(
                    worker, method, path, forward_headers, body
                )
            except WorkerUnavailableError as error:
                status = 503
                payload = error_body("worker_unavailable", str(error))
        finally:
            self._in_flight -= 1
            self._in_flight_requests.pop(request_id, None)
        extra: Dict[str, str] = {}
        for name in (
            "x-batch-size",
            "retry-after",
            "x-request-id",
            "x-trace-id",
        ):
            value = response_headers.get(name)
            if value is not None:
                extra["-".join(p.capitalize() for p in name.split("-"))] = (
                    value
                )
        extra.setdefault("X-Request-Id", request_id)
        if ctx is not None:
            extra.setdefault("X-Trace-Id", ctx.trace_id)
        content_type = response_headers.get("content-type")
        if content_type:
            extra["Content-Type"] = content_type
        batch_size = int(response_headers.get("x-batch-size", "0") or "0")
        self._finish_route(
            endpoint, slot, status, batch_size, started, started_ns,
            request_id, ctx,
        )
        return status, payload, extra

    def _finish_route(
        self,
        endpoint: str,
        slot: int,
        status: int,
        batch_size: int,
        started: float,
        started_ns: int,
        request_id: str,
        ctx: Optional[TraceContext],
    ) -> None:
        """Router-side bookkeeping for one routed request.

        The router deliberately does *not* call
        :func:`instrument.record_request` — the worker already did, and
        ``/metrics`` aggregates both sides, so counting here would
        double every request. It keeps its own SLO window (the
        end-to-end client view, including the forward hop) and its own
        log/span records.
        """
        elapsed = time.perf_counter() - started
        self.slo.observe(endpoint, status, elapsed)
        # Ring always collects (the /debug/obs "recent" view); the
        # logger only touches disk when a log path was configured.
        self.logger.log(
            {
                "ts_unix_ns": time.time_ns(),
                "request_id": request_id,
                "trace_id": ctx.trace_id if ctx is not None else "",
                "endpoint": endpoint,
                "status": status,
                "latency_ms": round(elapsed * 1000.0, 3),
                "batch_size": batch_size,
                "outcome": _outcome(status),
                "worker": slot,
            }
        )
        tracer = current_tracer()
        if tracer is None or ctx is None or not ctx.sampled:
            return
        # Same interleaved-await reasoning as the worker's serve.request
        # span: record parentless and merge via adopt(). ``ctx_span`` is
        # the hex the worker recorded as ``parent_ctx`` — the stitch.
        tracer.adopt(
            [
                SpanRecord(
                    name="serve.router",
                    span_id=tracer._next_id(),
                    parent_id=None,
                    start_unix_ns=started_ns,
                    duration_ns=int(elapsed * 1e9),
                    cpu_ns=0,
                    thread_id=threading.get_ident(),
                    process_id=os.getpid(),
                    attributes={
                        "endpoint": endpoint,
                        "status": status,
                        "request_id": request_id,
                        "trace_id": ctx.trace_id,
                        "ctx_span": ctx.span_id,
                        "worker": "router",
                        "routed_to": slot,
                        **({"batch_size": batch_size} if batch_size else {}),
                    },
                    status="ok" if status < 500 else f"error: {status}",
                )
            ]
        )

    # -- aggregation ---------------------------------------------------------

    async def _fetch_worker(
        self, worker: _Worker, path: str
    ) -> Optional[Tuple[int, Dict[str, str], bytes]]:
        try:
            return await asyncio.wait_for(
                self._forward(worker, "GET", path, {}, b""),
                timeout=_FANOUT_TIMEOUT_S,
            )
        except (WorkerUnavailableError, asyncio.TimeoutError):
            return None

    async def _aggregate_metrics(self) -> str:
        """Merge every worker's /metrics (worker-labelled) with ours."""
        alive = [w for w in self._workers if w.alive()]
        responses = await asyncio.gather(
            *(self._fetch_worker(worker, "/metrics") for worker in alive)
        )
        parts: List[Tuple[Dict[str, str], str]] = []
        for worker, response in zip(alive, responses):
            if response is not None and response[0] == 200:
                parts.append(
                    (
                        {"worker": str(worker.slot)},
                        _strip_router_families(
                            response[2].decode("utf-8")
                        ),
                    )
                )
        # Refresh the router's SLO gauges at scrape time, mirroring the
        # worker-side publish in EvalServer._route.
        self.slo.publish()
        parts.append(
            ({"worker": "router"}, get_registry().to_prometheus_text())
        )
        return merge_prometheus_texts(parts)

    async def _aggregate_healthz(self) -> Dict[str, Any]:
        """Per-worker liveness and identity."""
        entries: List[Dict[str, Any]] = []
        fetches = await asyncio.gather(
            *(
                self._fetch_worker(worker, "/healthz")
                if worker.alive()
                else _none()
                for worker in self._workers
            )
        )
        for worker, response in zip(self._workers, fetches):
            entry: Dict[str, Any] = {
                "worker": worker.slot,
                "pid": worker.pid,
                "alive": worker.alive(),
                "restarts": worker.restarts,
            }
            if response is not None and response[0] == 200:
                try:
                    reported = json.loads(response[2])
                except ValueError:
                    reported = {}
                entry["status"] = reported.get("status", "unknown")
            else:
                entry["status"] = (
                    "unreachable" if worker.alive() else "dead"
                )
            entries.append(entry)
        return {
            "status": "draining" if self._draining else "ok",
            "workers": entries,
        }

    async def _aggregate_obs(self) -> Dict[str, Any]:
        """The fleet-wide live ops snapshot behind ``GET /debug/obs``.

        The router's own view (in-flight forwards, recent log records,
        SLO status) plus each live worker's ``/debug/obs`` verbatim —
        dead or unreachable workers appear with ``reachable: false`` so
        the surface never hides a sick shard.
        """
        now = time.time_ns()
        in_flight = sorted(
            (dict(entry) for entry in self._in_flight_requests.values()),
            key=lambda entry: entry["started_unix_ns"],
        )
        for entry in in_flight:
            entry["age_ms"] = round(
                (now - entry["started_unix_ns"]) / 1e6, 3
            )
        snapshot: Dict[str, Any] = {
            "role": "router",
            "pid": os.getpid(),
            "draining": self._draining,
            "tracing": current_tracer() is not None,
            "workers_alive": len(self._alive_slots()),
            "in_flight": in_flight,
            "recent": self.logger.recent(),
            "slo": self.slo.status(),
        }
        fetches = await asyncio.gather(
            *(
                self._fetch_worker(worker, "/debug/obs")
                if worker.alive()
                else _none()
                for worker in self._workers
            )
        )
        workers: List[Dict[str, Any]] = []
        for worker, response in zip(self._workers, fetches):
            entry: Dict[str, Any] = {
                "worker": worker.slot,
                "pid": worker.pid,
                "alive": worker.alive(),
                "reachable": False,
            }
            if response is not None and response[0] == 200:
                try:
                    entry.update(json.loads(response[2]))
                    entry["reachable"] = True
                except ValueError:
                    pass
            workers.append(entry)
        snapshot["workers"] = workers
        return snapshot

    async def _aggregate_trace(self) -> Dict[str, Any]:
        """Every worker's spans merged with the router's own.

        The payload behind ``GET /debug/trace`` and the source of the
        drain-time Chrome export: ``process_names`` maps each pid to its
        lane label so the merged trace renders one lane per process.
        """
        spans: List[Dict[str, Any]] = []
        process_names: Dict[int, str] = {os.getpid(): "router"}
        tracer = current_tracer()
        if tracer is not None:
            spans.extend(
                record.to_jsonable() for record in tracer.spans()
            )
        alive = [w for w in self._workers if w.alive()]
        fetches = await asyncio.gather(
            *(
                self._fetch_worker(worker, "/debug/trace")
                for worker in alive
            )
        )
        for worker, response in zip(alive, fetches):
            if response is None or response[0] != 200:
                continue
            try:
                reported = json.loads(response[2])
            except ValueError:
                continue
            process_names[int(reported.get("pid", worker.pid))] = (
                f"worker {worker.slot}"
            )
            spans.extend(reported.get("spans", ()))
        spans.sort(
            key=lambda record: (
                record.get("start_unix_ns", 0),
                str(record.get("span_id", "")),
            )
        )
        return {
            "schema": TRACE_SCHEMA,
            "pid": os.getpid(),
            "role": "router",
            "process_names": process_names,
            "spans": spans,
        }

    # -- blocking entry point (CLI) ------------------------------------------

    def run_forever(
        self,
        stop_event: Optional[threading.Event] = None,
        ready: Optional[Any] = None,
    ) -> None:
        """Serve until SIGINT/SIGTERM (or ``stop_event``), then drain."""
        _serve_until_stopped(self, stop_event, ready)


async def _none() -> None:
    return None


#: Families only the router increments. Workers still render them (the
#: instruments are defined process-wide and zero-valued gauges/counters
#: always appear), so worker dumps must drop them before relabelling or
#: the merged exposition would carry duplicate series.
_ROUTER_ONLY_FAMILIES = (
    "serve_routed_total",
    "serve_workers_alive",
    "serve_worker_respawns_total",
)


def _strip_router_families(text: str) -> str:
    """Remove router-only metric families from one worker's dump."""

    def _keep(line: str) -> bool:
        probe = line
        for prefix in ("# HELP ", "# TYPE "):
            if line.startswith(prefix):
                probe = line[len(prefix):]
                break
        return not any(
            probe.startswith(family) for family in _ROUTER_ONLY_FAMILIES
        )

    return "\n".join(
        line for line in text.splitlines() if _keep(line)
    ) + "\n"


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Parse one worker HTTP response: status, headers, exact body."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ConnectionError(f"malformed status line {lines[0]!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line or ":" not in line:
            continue
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


async def _write_response(
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
    if close:
        lines.append("Connection: close")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
    try:
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass


def _method_not_allowed(allow: str) -> Tuple[int, bytes, Dict[str, str]]:
    return (
        405,
        error_body("method_not_allowed", f"use {allow}"),
        {"Allow": allow},
    )


# -- test/bench harness ------------------------------------------------------


class ShardThread:
    """A :class:`ShardSupervisor` on a dedicated thread + event loop.

    The in-process harness mirroring :class:`~repro.serve.server.ServerThread`:
    ``start()`` blocks until the public port is bound *and* every worker
    has reported ready; ``stop()`` runs the rolling drain and joins the
    thread. Usable as a context manager.
    """

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        self.supervisor = ShardSupervisor(config=config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.supervisor.host

    @property
    def port(self) -> int:
        return self.supervisor.port

    def start(self, timeout: float = 180.0) -> "ShardThread":
        self._thread = threading.Thread(
            target=self._run, name="shard-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=timeout)
        if self._startup_error is not None:
            raise RuntimeError(
                "shard supervisor failed to start"
            ) from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError(
                f"shard supervisor did not start within {timeout:g} s"
            )
        return self

    def _run(self) -> None:
        async def _main() -> None:
            loop = asyncio.get_running_loop()
            self._loop = loop
            self._stop_future: asyncio.Future = loop.create_future()
            try:
                await self.supervisor.start()
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                try:
                    await self.supervisor.stop()
                except Exception:
                    pass
                return
            self._ready.set()
            await self._stop_future
            await self.supervisor.stop()

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
            self._thread.join(timeout=120.0)

    def __enter__(self) -> "ShardThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = [
    "ShardConfig",
    "ShardSupervisor",
    "ShardThread",
    "WorkerUnavailableError",
    "rendezvous_worker",
    "routing_key",
]
