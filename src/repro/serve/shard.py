"""Horizontally sharded serve: a prefork worker pool with sticky routes.

One :class:`~repro.serve.server.EvalServer` runs on one asyncio loop and
therefore one core. This module scales the service across processes
while keeping every guarantee PR 7's coalescing service makes:

* **Prefork worker pool** — a parent supervisor spawns N worker
  processes, each a full ``EvalServer`` (own loop, own batcher, own
  metrics registry) bound to an ephemeral loopback port.
* **Sticky routing** — the parent accepts the public socket and
  forwards each request to the worker chosen by rendezvous hashing of
  :func:`routing_key`: the batcher's group key itself, not a shadow of
  it, read from the JSON body by the one request reader both roles
  use (:func:`~repro.serve.common.read_request`). Requests the batcher
  *could* coalesce share a key, so they land on the same worker and
  fuse there — which is exactly what preserves the byte-identity
  contract under sharding (a group split across workers would still be
  correct, but would coalesce less) — and the router keeps no copy of
  any endpoint's fields or defaults.
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
* **Trace propagation** — with tracing or request logging on, the
  router gives each request a ``traceparent`` context at admission (a
  child of the caller's, when the caller sent one) and forwards it
  (plus ``X-Request-Id``) on the worker hop; at drain it collects
  every worker's spans over ``/debug/trace`` and writes one Chrome
  trace with a distinct process lane per worker.
* **One request ledger** — the router accounts for every request it
  answers through the same :class:`~repro.obs.log.RequestLedger` as
  the worker, its own 503s, its GETs and the wire layer's refusals
  included: one in-flight entry, log line (``role: router``), SLO
  observation and ``serve.router`` span each, timed from head arrival
  to the written response.
* **Lifecycle** — dead workers are respawned with exponential backoff;
  SIGTERM/SIGINT triggers a rolling drain: new requests are refused
  with 503 while every accepted request (in any worker) completes, then
  workers are terminated one at a time.
* **A lean router** — the router evaluates nothing, so this module
  imports nothing NumPy-backed (:mod:`repro.serve.common` with its
  request reader, the wire layer, ``repro.obs``); each
  worker imports the server and the engine inside :func:`_worker_main`.
  ``tests/test_import_boundary.py`` holds the line.

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

from ..obs import instrument
from ..obs.log import RequestLedger, RequestRecord
from ..obs.metrics import get_registry, merge_prometheus_texts
from ..obs.trace import TRACE_SCHEMA, chrome_trace_from_spans, current_tracer
from .common import (
    BATCHED_ENDPOINTS,
    BadRequestError,
    ServerConfig,
    canonical_json,
    error_body,
    read_request,
)
from .wire import (
    Listener,
    Request,
    ServiceThread,
    _method_not_allowed,
    _serve_until_stopped,
    read_response,
    write_request,
)

#: How often the supervisor checks worker liveness (seconds).
_MONITOR_INTERVAL_S = 0.2

#: Per-worker fan-out timeout for /metrics and /healthz aggregation.
_FANOUT_TIMEOUT_S = 5.0

#: Request headers the router forwards to a worker.
_FORWARDED_HEADERS = (
    "content-type",
    "x-deadline-ms",
    "traceparent",
    "x-request-id",
)


# -- sticky routing ----------------------------------------------------------


def routing_key(endpoint: str, body: bytes) -> bytes:
    """The sticky-routing key of one request: its batcher group key.

    The key bytes :func:`~repro.serve.common.read_request` gives the
    worker's batcher, so every coalescing group lands on one worker, by
    construction, and the router keeps no copy of any endpoint's fields
    or defaults. A body that is not JSON (nested past the parser's
    recursion limit included), or that the reader refuses, routes on its
    own first bytes instead, deterministically, and collects its 400
    from the worker.
    """
    try:
        return read_request(endpoint, json.loads(body))[0][1]
    except (ValueError, RecursionError, BadRequestError):
        return b"opaque:" + endpoint.encode() + b":" + body[:128]


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
    # The router imports no NumPy; the worker loads the engine here.
    from .protocol import ServeState
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
        self._listener = Listener(self, self.config.server.max_body_bytes)
        self._monitor_task: Optional[asyncio.Task] = None
        self._respawn_tasks: Dict[int, asyncio.Task] = {}
        self._draining = False
        # The router's own view: every request it answers, end to end
        # (the forward hop included), in its log, SLO window and spans.
        self.ledger = RequestLedger(
            "router",
            log_path=self.config.server.log_json,
            slo_window_s=self.config.server.slo_window_s,
            trace=self.config.server.trace,
        )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def workers(self) -> Tuple[_Worker, ...]:
        return tuple(self._workers)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Boot every worker, then bind the public port."""
        self.ledger.start()
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
        self.host, self.port = await self._listener.start(
            self.config.host, self.config.port
        )
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
        Every request already admitted completes — the router waits for
        its ledger's open records, and each worker's SIGTERM drain waits
        for its admitted batches — then workers are terminated one at a
        time, each reaped before the next.
        """
        # The listener stays open while draining: clients that connect
        # mid-drain get an explicit 503/draining, not a refused socket.
        self._draining = True
        deadline = time.monotonic() + self.config.drain_grace_s
        while self.ledger.in_flight() and time.monotonic() < deadline:
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
        await self._listener.close()
        self.ledger.stop()

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
        self, worker: _Worker, fresh: bool
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """A connection to one worker: pooled unless ``fresh``.

        Returns ``(reader, writer, pooled)``. Pooled connections the
        worker has closed (its idle limit) are dropped unused; ``pooled``
        tells the forwarder that a failure may still be a stale
        keep-alive connection, worth one retry on a fresh socket.
        """
        while worker.idle and not fresh:
            reader, writer = worker.idle.pop()
            if not (writer.is_closing() or reader.at_eof()):
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
        forwarded = {"Host": f"{worker.host}:{worker.port}"}
        for name in _FORWARDED_HEADERS:
            value = headers.get(name)
            if value is not None:
                forwarded[name] = value
        for fresh in (False, True):
            try:
                reader, writer, pooled = await self._acquire(worker, fresh)
            except OSError as error:
                raise WorkerUnavailableError(
                    f"worker {worker.slot} is unreachable: {error}"
                ) from error
            try:
                await write_request(writer, method, path, forwarded, body)
                status, response_headers, payload = await read_response(
                    reader
                )
            except (OSError, asyncio.IncompleteReadError) as error:
                writer.close()
                if pooled:
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

    # -- request handling ----------------------------------------------------

    async def handle(self, request: Request) -> bool:
        """Answer one request; returns whether to keep the connection."""
        record = self.ledger.admit(request)
        try:
            status, payload, extra = await self._route(request, record)
            headers = record.headers(extra)
            keep = await request.respond(
                status, payload, headers, self._draining
            )
            # No instrument.record_request here: the worker counts the
            # request, and /metrics merges both sides.
            self.ledger.finish(record, status, headers)
            return keep
        finally:
            self.ledger.release(record)

    async def _route(
        self, request: Request, record: RequestRecord
    ) -> Tuple[int, bytes, Dict[str, str]]:
        method, path = request.method, request.path
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
        if record.endpoint not in BATCHED_ENDPOINTS:
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
        try:
            slots = self._alive_slots()
            if not slots:
                raise WorkerUnavailableError("no live workers to serve this")
            slot = rendezvous_worker(
                routing_key(record.endpoint, request.body), slots
            )
            record.worker = slot
            instrument.record_route(slot)
            # The worker echoes this request id rather than minting its
            # own, and records this hop's span id as its parent: the
            # stitch point of the distributed trace.
            forward_headers: Dict[str, str] = dict(request.headers)
            forward_headers["x-request-id"] = record.request_id
            if record.ctx is not None:
                forward_headers["traceparent"] = record.ctx.to_traceparent()
            status, response_headers, payload = await self._forward(
                self._workers[slot],
                method,
                path,
                forward_headers,
                request.body,
            )
        except WorkerUnavailableError as error:
            record.outcome = "worker_unavailable"
            return 503, error_body("worker_unavailable", str(error)), {}
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
        content_type = response_headers.get("content-type")
        if content_type:
            extra["Content-Type"] = content_type
        return status, payload, extra

    # -- aggregation ---------------------------------------------------------

    async def _fan_out(self, path: str) -> List[Optional[bytes]]:
        """Each worker's ``GET path`` body, in slot order; ``None`` for a
        dead or unreachable worker or a reply other than 200."""

        async def fetch(worker: _Worker) -> Optional[bytes]:
            if not worker.alive():
                return None
            try:
                status, _headers, body = await asyncio.wait_for(
                    self._forward(worker, "GET", path, {}, b""),
                    timeout=_FANOUT_TIMEOUT_S,
                )
            except (WorkerUnavailableError, asyncio.TimeoutError):
                return None
            return body if status == 200 else None

        return await asyncio.gather(*(fetch(w) for w in self._workers))

    async def _aggregate_metrics(self) -> str:
        """Merge every worker's /metrics (worker-labelled) with ours."""
        parts: List[Tuple[Dict[str, str], str]] = [
            (
                {"worker": str(worker.slot)},
                _strip_router_families(body.decode("utf-8")),
            )
            for worker, body in zip(
                self._workers, await self._fan_out("/metrics")
            )
            if body is not None
        ]
        # Refresh the router's SLO gauges at scrape time, mirroring the
        # worker-side publish in EvalServer._route.
        self.ledger.slo.publish()
        parts.append(
            ({"worker": "router"}, get_registry().to_prometheus_text())
        )
        return merge_prometheus_texts(parts)

    async def _aggregate_healthz(self) -> Dict[str, Any]:
        """Per-worker liveness and identity."""
        entries: List[Dict[str, Any]] = []
        bodies = await self._fan_out("/healthz")
        for worker, body in zip(self._workers, bodies):
            entry: Dict[str, Any] = {
                "worker": worker.slot,
                "pid": worker.pid,
                "alive": worker.alive(),
                "restarts": worker.restarts,
            }
            if body is not None:
                try:
                    reported = json.loads(body)
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

        The router's own view (the requests it has open, its recent log
        lines, its SLO status) plus each live worker's ``/debug/obs``
        verbatim — dead or unreachable workers appear with
        ``reachable: false`` so the surface never hides a sick shard.
        """
        snapshot: Dict[str, Any] = {
            "role": "router",
            "pid": os.getpid(),
            "draining": self._draining,
            "tracing": current_tracer() is not None,
            "workers_alive": len(self._alive_slots()),
            **self.ledger.snapshot(),
        }
        workers: List[Dict[str, Any]] = []
        bodies = await self._fan_out("/debug/obs")
        for worker, body in zip(self._workers, bodies):
            entry: Dict[str, Any] = {
                "worker": worker.slot,
                "pid": worker.pid,
                "alive": worker.alive(),
                "reachable": False,
            }
            if body is not None:
                try:
                    entry.update(json.loads(body))
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
        bodies = await self._fan_out("/debug/trace")
        for worker, body in zip(self._workers, bodies):
            if body is None:
                continue
            try:
                reported = json.loads(body)
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


# -- test/bench harness ------------------------------------------------------


class ShardThread(ServiceThread):
    """A :class:`ShardSupervisor` on a dedicated thread + event loop.

    The in-process harness of the sharded service: ``start()`` returns
    once the public port is bound *and* every worker has reported
    ready (see :class:`~repro.serve.wire.ServiceThread`).
    """

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        self.supervisor = ShardSupervisor(config=config)
        super().__init__(self.supervisor)


__all__ = [
    "ShardConfig",
    "ShardSupervisor",
    "ShardThread",
    "WorkerUnavailableError",
    "rendezvous_worker",
    "routing_key",
]
