"""One request ledger per serve role, and the JSON-lines request log.

Both roles of ``ttm-cas serve``, the worker
(:class:`~repro.serve.server.EvalServer`) and the shard router
(:class:`~repro.serve.shard.ShardSupervisor`), account for every request
they answer through a :class:`RequestLedger`, one :class:`RequestRecord`
per request, the wire layer's refusals (400, 408, 413) included.
**Admit** takes the request id (the inbound ``X-Request-Id``, or a
minted one) and the trace context (a child of an inbound
``traceparent``, or a fresh one when tracing or a log file is on) and
opens the ``/debug/obs`` in-flight entry. The worker lends the
record to the coalescing batcher as its ``meta``, which stamps it.
**Finish**, once the response is written, emits the log line, the SLO
observation and, when tracing, the role's root span (``serve.router``
or ``serve.request``); **release** closes the in-flight entry. The
ledger also installs the role's tracer when tracing is asked for and
none is installed, and removes only a tracer it installed.

A :class:`RequestLogger` keeps a ring of recent lines (the
``/debug/obs`` "recent" feed) and, given a path (``--log-json FILE``),
appends them to a JSONL file every process of a prefork fleet shares:
each ``write`` is one line under the process's lock, POSIX appends of
one small buffered line do not tear in practice, and every line is
self-describing. ``ttm-cas obs tail`` pretty-prints the last N lines.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import IO, Any, Deque, Dict, Iterable, List, Mapping, Optional

from .distributed import (
    TraceContext,
    mint_request_id,
    mint_trace_context,
    parse_traceparent,
)
from .slo import SLOTracker
from .trace import (
    SpanRecord,
    Tracer,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)

__all__ = [
    "LOG_SCHEMA",
    "RequestLedger",
    "RequestLogger",
    "RequestRecord",
    "format_record",
    "read_request_log",
    "tail_records",
]

LOG_SCHEMA = "repro.obs/request-log@1"

#: Rolling span window a ledger-installed tracer keeps (a long-lived
#: serve process must not grow without bound).
_TRACE_SPAN_LIMIT = 20_000


class RequestLogger:
    """Per-process request log: bounded ring always, JSONL file opt-in.

    Thread-safe; the file (if any) is opened lazily on first write so
    constructing a server never creates artifacts, and line-buffered so
    a tail sees records as they land.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        role: str = "server",
        ring_size: int = 256,
    ) -> None:
        self.path = path or None
        self.role = role
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=max(1, ring_size))
        self._lock = threading.Lock()
        self._file: Optional[IO[str]] = None
        self._closed = False

    @property
    def active(self) -> bool:
        """True when records are written to disk (not just the ring)."""
        return self.path is not None and not self._closed

    def log(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        record.setdefault("schema", LOG_SCHEMA)
        record.setdefault("role", self.role)
        line = None
        if self.path is not None and not self._closed:
            line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._ring.append(record)
            if line is not None:
                if self._file is None:
                    self._file = open(self.path, "a", buffering=1)
                self._file.write(line + "\n")

    def recent(self, limit: int = 50) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._ring)
        return records[-max(0, limit):]

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None


@dataclass(eq=False)  # hashed by identity: the in-flight key
class RequestRecord:
    """One request from admission to release (see :class:`RequestLedger`).

    ``ctx`` is this role's own trace context: its ``span_id`` is the one
    a downstream hop records as its parent. ``parent_span`` is the span
    id of the inbound ``traceparent``, if any. ``endpoint`` is the path
    without its slash (``root`` for ``/``, ``-`` for a request the wire
    layer refused before its request line parsed). ``worker`` is the
    worker that answers: this worker's id, or the slot the router
    forwarded to. ``outcome`` overrides the log line's classification
    of the status (the router's ``worker_unavailable`` 503).

    The batcher writes its ``perf_counter_ns`` stamps (``t_enqueue``,
    ``t_flush``, ``t_exec_start``, ``t_exec_end``) and ``batch_span_id``
    as items and reads ``request_id`` and ``trace_id`` with ``get``: the
    record is the ``meta`` it is lent.
    """

    request_id: str
    ctx: Optional[TraceContext]
    parent_span: Optional[str]
    endpoint: str
    started: float
    started_ns: int
    worker: Optional[int] = None
    outcome: Optional[str] = None
    t_enqueue: Optional[int] = None
    t_flush: Optional[int] = None
    t_exec_start: Optional[int] = None
    t_exec_end: Optional[int] = None
    batch_span_id: Optional[str] = None

    @property
    def trace_id(self) -> str:
        return self.ctx.trace_id if self.ctx is not None else ""

    def __setitem__(self, key: str, value: Any) -> None:
        setattr(self, key, value)

    def get(self, key: str, default: Any = None) -> Any:
        return getattr(self, key, default)

    def headers(self, headers: Mapping[str, str]) -> Dict[str, str]:
        """``headers`` plus ``X-Request-Id`` and, when traced,
        ``X-Trace-Id``; a value already there (the router relays its
        worker's) wins."""
        merged = dict(headers)
        merged.setdefault("X-Request-Id", self.request_id)
        if self.ctx is not None:
            merged.setdefault("X-Trace-Id", self.ctx.trace_id)
        return merged

    def breakdown(self, elapsed_s: float) -> Dict[str, float]:
        """Queue / batch-wait / compute / serialize split from the
        batcher's stamps (empty for a request that never enqueued).

        ``serialize_ms`` is the remainder -- parse, response write, and
        event-loop scheduling -- clamped at zero against clock skew
        between the loop thread and the executor thread.
        """
        stamps = (
            self.t_enqueue, self.t_flush, self.t_exec_start, self.t_exec_end
        )
        if any(stamp is None for stamp in stamps):
            return {}
        enqueue, flush, exec_start, exec_end = stamps
        queue_ms = max(0.0, (flush - enqueue) / 1e6)
        batch_wait_ms = max(0.0, (exec_start - flush) / 1e6)
        compute_ms = max(0.0, (exec_end - exec_start) / 1e6)
        serialize_ms = max(
            0.0, elapsed_s * 1000.0 - queue_ms - batch_wait_ms - compute_ms
        )
        return {
            "queue_ms": round(queue_ms, 3),
            "batch_wait_ms": round(batch_wait_ms, 3),
            "compute_ms": round(compute_ms, 3),
            "serialize_ms": round(serialize_ms, 3),
        }


class RequestLedger:
    """One serve role's per-request accounting (see the module doc).

    ``role`` is ``"server"`` (one process), ``"worker"`` or ``"router"``:
    it names the log lines and picks the root span. ``worker`` is a shard
    worker's id. ``trace`` has :meth:`start` install a bounded tracer.
    Admission, release and the in-flight view run on the role's event
    loop; the log and the SLO window are thread-safe.
    """

    def __init__(
        self,
        role: str,
        *,
        log_path: str = "",
        slo_window_s: float = 300.0,
        trace: bool = False,
        worker: Optional[int] = None,
    ) -> None:
        self.role = role
        self.worker = worker
        self.logger = RequestLogger(path=log_path or None, role=role)
        self.slo = SLOTracker(window_s=slo_window_s)
        self._span_name = (
            "serve.router" if role == "router" else "serve.request"
        )
        self._trace = trace
        self._tracer: Optional[Tracer] = None
        self._open: Dict[RequestRecord, None] = {}

    def start(self) -> None:
        """Install a bounded tracer if tracing is on and none is."""
        if self._trace and current_tracer() is None:
            self._tracer = install_tracer(Tracer(limit=_TRACE_SPAN_LIMIT))

    def stop(self) -> Optional[Tracer]:
        """Close the log file and remove the tracer :meth:`start`
        installed, returning it; a caller-managed tracer stays put."""
        tracer, self._tracer = self._tracer, None
        if tracer is not None and current_tracer() is tracer:
            uninstall_tracer()
        self.logger.close()
        return tracer

    def admit(self, request: Any) -> RequestRecord:
        """Open the record of one request (a
        :class:`repro.serve.wire.Request`: path, headers, arrival), read
        in full or refused by the wire layer."""
        headers = request.headers
        tracing = current_tracer() is not None
        inbound = parse_traceparent(headers.get("traceparent"))
        parent_span = None
        if inbound is not None:
            # A fresh span id under the caller's: the caller's span is
            # this request's parent, the child is what it forwards.
            ctx: Optional[TraceContext] = inbound.child()
            parent_span = inbound.span_id
        elif tracing or self.logger.active:
            ctx = mint_trace_context(sampled=tracing)
        else:
            ctx = None
        record = RequestRecord(
            headers.get("x-request-id") or mint_request_id(),
            ctx,
            parent_span,
            request.path.lstrip("/") or ("root" if request.path else "-"),
            request.started,
            request.started_ns,
            self.worker,
        )
        self._open[record] = None
        return record

    def finish(
        self, record: RequestRecord, status: int, headers: Mapping[str, str]
    ) -> float:
        """Log, observe and (when tracing) span one answered request;
        returns its latency in seconds, from head arrival to the written
        response. ``headers`` are the response's (``X-Batch-Size``)."""
        elapsed = time.perf_counter() - record.started
        batch_size = int(headers.get("X-Batch-Size", 0) or 0)
        breakdown = record.breakdown(elapsed)
        line: Dict[str, Any] = {
            "ts_unix_ns": time.time_ns(),
            "request_id": record.request_id,
            "trace_id": record.trace_id,
            "endpoint": record.endpoint,
            "status": status,
            "latency_ms": round(elapsed * 1000.0, 3),
            "batch_size": batch_size,
            "outcome": record.outcome or _outcome(status),
        }
        if record.worker is not None:
            line["worker"] = record.worker
        if breakdown:
            line["breakdown"] = breakdown
        self.logger.log(line)
        self.slo.observe(record.endpoint, status, elapsed)

        tracer = current_tracer()
        ctx = record.ctx
        if tracer is None or (ctx is not None and not ctx.sampled):
            return elapsed
        # Concurrent requests interleave awaits on one thread, so the
        # tracer's thread-local nesting stack cannot scope them; record
        # a parentless span directly and merge it via adopt().
        attributes: Dict[str, Any] = {
            "endpoint": record.endpoint,
            "status": status,
            "request_id": record.request_id,
        }
        if ctx is not None:
            attributes["trace_id"] = ctx.trace_id
            attributes["ctx_span"] = ctx.span_id
        if record.parent_span is not None:
            attributes["parent_ctx"] = record.parent_span
        if batch_size:
            attributes["batch_size"] = batch_size
        if record.batch_span_id:
            attributes["batch_span_id"] = record.batch_span_id
        # The span's process lane, and where the router sent the request.
        if self.role == "router":
            attributes["worker"] = "router"
            if record.worker is not None:
                attributes["routed_to"] = record.worker
        elif record.worker is not None:
            attributes["worker"] = record.worker
        attributes.update(breakdown)
        tracer.adopt(
            [
                SpanRecord(
                    name=self._span_name,
                    span_id=tracer._next_id(),
                    parent_id=None,
                    start_unix_ns=record.started_ns,
                    duration_ns=int(elapsed * 1e9),
                    cpu_ns=0,
                    thread_id=threading.get_ident(),
                    process_id=os.getpid(),
                    attributes=attributes,
                    status="ok" if status < 500 else f"error: {status}",
                )
            ]
        )
        return elapsed

    def release(self, record: RequestRecord) -> None:
        """Close the in-flight entry (on every exit, a cancelled request
        included)."""
        self._open.pop(record, None)

    def in_flight(self) -> List[Dict[str, Any]]:
        """The open requests, oldest first, with their ages."""
        now_ns = time.time_ns()
        return [
            {
                "request_id": record.request_id,
                "trace_id": record.trace_id,
                "endpoint": record.endpoint,
                "started_unix_ns": record.started_ns,
                "age_ms": round((now_ns - record.started_ns) / 1e6, 3),
                **({} if record.worker is None else {"worker": record.worker}),
            }
            for record in sorted(self._open, key=lambda r: r.started_ns)
        ]

    def snapshot(self) -> Dict[str, Any]:
        """The ledger's part of ``GET /debug/obs``."""
        return {
            "in_flight": self.in_flight(),
            "recent": self.logger.recent(),
            "slo": self.slo.status(),
        }


def _outcome(status: int) -> str:
    """Log-line outcome classification for one response status (a 503
    is a drain unless the role says otherwise, see
    :class:`RequestRecord`)."""
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


def read_request_log(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL request log, skipping blank/corrupt lines (a line
    torn by an unclean shutdown must not hide the rest of the file)."""
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _fmt_ms(value: Any) -> str:
    try:
        return f"{float(value):.1f}"
    except (TypeError, ValueError):
        return "-"


def format_record(record: Dict[str, Any]) -> str:
    """One human-scannable line per record for ``ttm-cas obs tail``."""
    breakdown = record.get("breakdown") or {}
    parts = [
        f"{record.get('role', '?'):>6}",
        f"{record.get('endpoint', '?'):<10}",
        f"{record.get('status', '?'):>3}",
        f"{_fmt_ms(record.get('latency_ms')):>8}ms",
        f"batch={record.get('batch_size', 0)}",
        "q/w/c/s="
        + "/".join(
            _fmt_ms(breakdown.get(key))
            for key in ("queue_ms", "batch_wait_ms", "compute_ms", "serialize_ms")
        ),
    ]
    if record.get("outcome") and record["outcome"] != "ok":
        parts.append(f"outcome={record['outcome']}")
    rid = record.get("request_id") or "-"
    tid = record.get("trace_id") or "-"
    parts.append(f"rid={rid}")
    parts.append(f"trace={tid}")
    return "  ".join(parts)


def tail_records(
    records: Iterable[Dict[str, Any]], limit: int = 20
) -> List[Dict[str, Any]]:
    """Last ``limit`` records ordered by timestamp (stable for ties),
    so interleaved router+worker lines come out chronologically; none
    when ``limit`` is 0 or less."""
    if limit <= 0:
        return []
    ordered = sorted(
        records, key=lambda r: r.get("ts_unix_ns", 0)
    )
    return ordered[-limit:]
