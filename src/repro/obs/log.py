"""Structured JSON-lines request logs for the serve stack.

Zero-dependency by design: one :class:`RequestLogger` per process
appends one JSON object per completed request — request id, trace id,
endpoint, status, the latency breakdown the batcher stamped
(queue / batch-wait / compute / serialize), batch size, and outcome —
so router and worker logs from a prefork fleet interleave safely in a
single shared file (each ``write`` is one line under the process's own
lock; POSIX appends of one small buffered line do not tear in practice
and every line is self-describing regardless).

The logger always keeps an in-memory ring of recent records (the
``/debug/obs`` "recent requests" feed); writing to disk is opt-in via
``path`` (the serve ``--log-json FILE`` flag).  ``ttm-cas obs tail``
pretty-prints the last N lines of such a file.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import IO, Any, Deque, Dict, Iterable, List, Optional

__all__ = [
    "LOG_SCHEMA",
    "RequestLogger",
    "format_record",
    "read_request_log",
    "tail_records",
]

LOG_SCHEMA = "repro.obs/request-log@1"

#: Keys every record carries (others ride along untouched).
_CORE_KEYS = ("ts_unix_ns", "role", "request_id", "trace_id", "endpoint", "status")


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
