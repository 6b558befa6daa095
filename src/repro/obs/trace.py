"""Tracing: nested spans, thread-safe collection, Chrome-trace export.

A :class:`Tracer` records :class:`SpanRecord` entries — name, wall and
CPU time, free-form attributes (tensor shapes, sample counts), plus the
thread/process that ran them and the parent span they nest under. Spans
are opened with the :meth:`Tracer.span` context manager; nesting is
tracked per thread (a ``threading.local`` stack), and records from
worker threads land in the same tracer under one lock, so
``parallel_map`` thread fan-outs trace correctly. Spans recorded
elsewhere -- another tracer, or the serve stack's hand-built request
spans -- merge in through :meth:`Tracer.adopt` (wall timestamps are
epoch-based, hence comparable across processes on one machine).

Nothing traces by default: the module-level :func:`span` helper returns
a shared no-op context manager until :func:`install_tracer` installs a
real one, so the engine's instrumentation costs one ``None`` check when
tracing is off (``tests/obs/test_overhead.py`` bounds the overhead).

Exports: :meth:`Tracer.to_chrome_trace` renders the Trace Event Format
that ``chrome://tracing`` / Perfetto load directly; :meth:`Tracer.to_jsonable`
is a schema-tagged span list for programmatic use, and
:func:`summarize_spans` aggregates such a list per span name.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Schema marker for the JSON span-list export.
TRACE_SCHEMA = "repro.obs/trace@1"

#: Sentinel distinguishing "no parent override" from "parent is None".
_UNSET = object()

#: Process-wide span-id counter (see :meth:`Tracer._next_id`).
_ID_COUNTER = itertools.count(1)


@dataclass
class SpanRecord:
    """One finished span (picklable; crosses process boundaries).

    ``start_unix_ns`` is epoch-based wall time, ``duration_ns`` the wall
    duration and ``cpu_ns`` the CPU time consumed by the span's thread's
    process. ``status`` is ``"ok"`` or ``"error: <ExceptionType>"``.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    start_unix_ns: int
    duration_ns: int
    cpu_ns: int
    thread_id: int
    process_id: int
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    @property
    def end_unix_ns(self) -> int:
        return self.start_unix_ns + self.duration_ns

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_ns": self.start_unix_ns,
            "duration_ns": self.duration_ns,
            "cpu_ns": self.cpu_ns,
            "thread_id": self.thread_id,
            "process_id": self.process_id,
            "attributes": dict(self.attributes),
            "status": self.status,
        }


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`.

    Yields itself; ``set(key, value)`` attaches attributes that travel
    with the finished record. ``span_id`` is available from entry on, so
    callers can hand it to workers as an explicit parent.
    """

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "attributes",
        "_start_unix_ns", "_start_perf", "_start_cpu",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Any,
        attributes: Dict[str, Any],
    ):
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.attributes = attributes

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def __enter__(self) -> "_SpanContext":
        stack = self._tracer._stack()
        if self.parent_id is _UNSET:
            self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start_unix_ns = time.time_ns()
        self._start_perf = time.perf_counter_ns()
        self._start_cpu = time.process_time_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter_ns() - self._start_perf
        cpu = time.process_time_ns() - self._start_cpu
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._tracer._finish(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,  # type: ignore[arg-type]
                start_unix_ns=self._start_unix_ns,
                duration_ns=duration,
                cpu_ns=cpu,
                thread_id=threading.get_ident(),
                process_id=os.getpid(),
                attributes=self.attributes,
                status=(
                    "ok" if exc_type is None
                    else f"error: {exc_type.__name__}"
                ),
            )
        )
        return False


class _NullSpan:
    """Shared no-op stand-in when no tracer is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    span_id = None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from every thread of this process (see module doc).

    ``limit`` bounds retained spans for long-lived serving processes:
    when set, the oldest records are dropped as new ones land, so a
    worker that stays up for days keeps a rolling window instead of
    growing without bound.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive when set")
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._local = threading.local()
        self.limit = limit

    def _next_id(self) -> str:
        # The counter is process-global, not per-tracer: spans of several
        # tracers in one process (one installed after another, or the
        # serve stack's adopted records) must never share an id once
        # merged, and per-instance counters would restart at 1 and
        # collide within one pid.
        return f"{os.getpid():x}-{next(_ID_COUNTER)}"

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)
            self._trim_locked()

    def _trim_locked(self) -> None:
        limit = self.limit
        if limit is not None and len(self._spans) > limit:
            del self._spans[: len(self._spans) - limit]

    def span(
        self, name: str, parent_id: Any = _UNSET, **attributes: Any
    ) -> _SpanContext:
        """Open a span; nests under this thread's active span by default.

        Pass ``parent_id=`` explicitly to attach work submitted to
        another thread or process to the span that scheduled it.
        """
        return _SpanContext(self, name, parent_id, dict(attributes))

    def current_span_id(self) -> Optional[str]:
        """The active span id on *this* thread (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, records: Iterable[SpanRecord]) -> None:
        """Merge spans recorded elsewhere (e.g. by another tracer)."""
        records = list(records)
        with self._lock:
            self._spans.extend(records)
            self._trim_locked()

    def spans(self) -> Tuple[SpanRecord, ...]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return tuple(self._spans)

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self._spans.clear()

    def to_jsonable(self) -> Dict[str, Any]:
        """Schema-tagged span list (programmatic export)."""
        return {
            "schema": TRACE_SCHEMA,
            "spans": [record.to_jsonable() for record in self.spans()],
        }

    def to_chrome_trace(
        self, process_names: Optional[Dict[int, str]] = None
    ) -> Dict[str, Any]:
        """Trace Event Format dict for ``chrome://tracing`` / Perfetto.

        Spans become complete (``"ph": "X"``) events with microsecond
        ``ts``/``dur``; span/parent ids and attributes ride in ``args``.
        See :func:`chrome_trace_from_spans` for the process-lane rules.
        """
        return chrome_trace_from_spans(
            (record.to_jsonable() for record in self.spans()),
            process_names=process_names,
        )

    def write_chrome_trace(
        self, path: str, process_names: Optional[Dict[int, str]] = None
    ) -> None:
        """Write :meth:`to_chrome_trace` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                self.to_chrome_trace(process_names=process_names),
                handle,
                indent=2,
                default=str,
            )
            handle.write("\n")

    def write_json(self, path: str) -> None:
        """Write :meth:`to_jsonable` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_jsonable(), handle, indent=2, default=str)
            handle.write("\n")


def summarize_spans(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-name aggregates of jsonable spans, most wall time first:
    ``count``, total and max wall ns (``wall_ns``, ``max_wall_ns``) and
    CPU ns (``cpu_ns``; 0 where a span has none). ``ttm-cas obs`` prints
    them for a span list or a Chrome trace."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span["name"],
            {"count": 0, "wall_ns": 0.0, "max_wall_ns": 0.0, "cpu_ns": 0.0},
        )
        entry["count"] += 1
        entry["wall_ns"] += span["duration_ns"]
        entry["max_wall_ns"] = max(entry["max_wall_ns"], span["duration_ns"])
        entry["cpu_ns"] += span.get("cpu_ns", 0)
    return [
        {"name": name, **values}
        for name, values in sorted(
            totals.items(), key=lambda item: -item[1]["wall_ns"]
        )
    ]


def chrome_trace_from_spans(
    spans: Iterable[Dict[str, Any]],
    process_names: Optional[Dict[int, str]] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace from jsonable span dicts, one *process lane*
    per originating pid.

    Spans merged from a sharded fleet all carry their worker's real
    ``process_id``; without metadata events the viewer shows bare pids
    (or, pre-fix, collapsed lanes). Each distinct pid gets a
    ``process_name`` metadata event (``"ph": "M"``) named from, in
    priority order: the explicit ``process_names`` mapping, a
    ``worker`` attribute found on any of the pid's spans, or
    ``"pid <n>"``. A ``process_sort_index`` event keeps the router lane
    on top and worker lanes in slot order.
    """
    names: Dict[int, str] = dict(process_names or {})
    events: List[Dict[str, Any]] = []
    pids: List[int] = []
    for record in spans:
        pid = record.get("process_id", 0)
        if pid not in names:
            worker = record.get("attributes", {}).get("worker")
            if worker is not None:
                names[pid] = f"worker {worker}"
        if pid not in pids:
            pids.append(pid)
        events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": record.get("start_unix_ns", 0) / 1000.0,
                "dur": max(record.get("duration_ns", 0) / 1000.0, 0.001),
                "pid": pid,
                "tid": record.get("thread_id", 0),
                "args": {
                    "span_id": record.get("span_id"),
                    "parent_id": record.get("parent_id"),
                    "status": record.get("status", "ok"),
                    **record.get("attributes", {}),
                },
            }
        )

    def _sort_key(pid: int) -> Tuple[int, str]:
        label = names.get(pid, f"pid {pid}")
        # Router first, then workers by label, then anonymous pids.
        if label == "router":
            return (0, label)
        return (1, label)

    metadata: List[Dict[str, Any]] = []
    for index, pid in enumerate(sorted(pids, key=_sort_key)):
        label = names.get(pid, f"pid {pid}")
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
        )
        metadata.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "args": {"sort_index": index},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


#: The installed tracer (None = tracing off; the fast path).
_INSTALLED: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process tracer."""
    global _INSTALLED
    _INSTALLED = tracer if tracer is not None else Tracer()
    return _INSTALLED


def uninstall_tracer() -> Optional[Tracer]:
    """Remove the installed tracer (returning it) and go back to no-op."""
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = None
    return previous


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is off."""
    return _INSTALLED


def span(name: str, **attributes: Any):
    """Open a span on the installed tracer; a shared no-op when none is.

    This is the hook instrumented modules call: when tracing is off it
    returns the singleton :data:`NULL_SPAN` without allocating a record.
    """
    tracer = _INSTALLED
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


__all__ = [
    "NULL_SPAN",
    "SpanRecord",
    "TRACE_SCHEMA",
    "Tracer",
    "chrome_trace_from_spans",
    "current_tracer",
    "install_tracer",
    "span",
    "summarize_spans",
    "uninstall_tracer",
]
