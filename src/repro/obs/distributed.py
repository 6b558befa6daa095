"""Cross-process trace context for the sharded serve stack.

One request through ``ttm-cas serve --workers N`` crosses three
processes: the parent router, a prefork worker, and (inside the worker)
the batcher's executor threads.  Each process runs its own in-process
:class:`~repro.obs.trace.Tracer`; what stitches their spans into *one*
trace is a compact W3C ``traceparent``-style context minted at router
admission and carried over the router→worker HTTP hop as a header:

``00-<32 hex trace id>-<16 hex span id>-<01|00>``

The trace id names the request end to end; the span id names the
*sender's* span (so the receiver can record it as ``parent_ctx``); the
trailing flags byte carries the sampling bit.  Span records then tag
themselves with ``trace_id`` / ``ctx_span`` / ``parent_ctx`` attributes
and :func:`stitch_trace` reassembles the cross-process tree: seed spans
matched by trace id, batch spans reached through the ``batch_span_id``
attribute stamped by the coalescing batcher, and engine-kernel spans
reached as in-process descendants.

Everything here is stdlib-only and allocation-light: contexts are
frozen dataclasses, ids come from :func:`os.urandom`, and parsing never
raises on malformed headers (it returns ``None`` — a bad header from a
client must not fail the request).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "REQUEST_ID_HEADER",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "mint_request_id",
    "mint_trace_context",
    "parse_traceparent",
    "stitch_trace",
]

#: Header carrying the trace context across the router→worker hop.
TRACEPARENT_HEADER = "traceparent"

#: Header carrying the request id (router-minted, echoed by workers).
REQUEST_ID_HEADER = "x-request-id"

_HEX = set("0123456789abcdef")

# Request ids are ordered per process: "pid-counter" reads naturally in
# logs and never collides across the prefork fleet.
_REQUEST_COUNTER = itertools.count(1)


def mint_request_id() -> str:
    """A process-unique, human-scannable request id (``pid-counter``)."""
    return f"{os.getpid():x}-{next(_REQUEST_COUNTER):x}"


def _hex_token(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """A parsed/mintable ``traceparent`` context.

    ``span_id`` is the wire id of the span that *owns* this context —
    the sender's current span.  The receiver records it as its parent.
    """

    trace_id: str  # 32 lowercase hex chars
    span_id: str  # 16 lowercase hex chars
    sampled: bool = True

    def to_traceparent(self) -> str:
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"

    def child(self) -> "TraceContext":
        """Same trace, fresh span id: a receiver's own context under
        the sender's span, the one it forwards downstream (see
        :meth:`repro.obs.log.RequestLedger.admit`)."""
        return TraceContext(self.trace_id, _hex_token(8), self.sampled)


def mint_trace_context(sampled: bool = True) -> TraceContext:
    """Mint a brand-new context at admission (router or solo server)."""
    return TraceContext(_hex_token(16), _hex_token(8), sampled)


def _is_hex(token: str, length: int) -> bool:
    return len(token) == length and all(c in _HEX for c in token)


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` on anything malformed.

    Only version ``00`` is accepted; an all-zero trace or span id is
    invalid per the W3C spec and rejected here too.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if version != "00":
        return None
    if not _is_hex(trace_id, 32) or set(trace_id) == {"0"}:
        return None
    if not _is_hex(span_id, 16) or set(span_id) == {"0"}:
        return None
    if not _is_hex(flags, 2):
        return None
    return TraceContext(trace_id, span_id, bool(int(flags, 16) & 0x01))


def _as_dict(span: Any) -> Dict[str, Any]:
    if hasattr(span, "to_jsonable"):
        return span.to_jsonable()
    return dict(span)


def stitch_trace(
    spans: Iterable[Any], trace_id: str
) -> List[Dict[str, Any]]:
    """Extract the single cross-process trace ``trace_id`` from a span
    soup merged across router and workers.

    Three joins, in order:

    1. *seeds* — spans whose ``attributes["trace_id"]`` matches (the
       router admission span and each worker request span);
    2. *batch membership* — each seed may carry a ``batch_span_id``
       attribute stamped by the coalescing batcher; the named
       ``serve.batch`` span joins even though, having fused several
       requests, it belongs to no single parent;
    3. *descendants* — the in-process ``parent_id`` closure under every
       span found so far (engine-kernel spans nest under the batch
       span on the worker's executor thread).

    Spans come back sorted by start time; each input may be a
    ``SpanRecord`` or an already-jsonable dict.
    """
    records = [_as_dict(s) for s in spans]
    by_id: Dict[str, Dict[str, Any]] = {}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in records:
        by_id[record["span_id"]] = record
        children.setdefault(record.get("parent_id"), []).append(record)

    seeds = [
        r
        for r in records
        if r.get("attributes", {}).get("trace_id") == trace_id
    ]
    queue = list(seeds)
    for seed in seeds:
        batch_id = seed.get("attributes", {}).get("batch_span_id")
        if batch_id in by_id:
            queue.append(by_id[batch_id])

    seen: Dict[str, bool] = {}
    stitched: List[Dict[str, Any]] = []
    while queue:
        record = queue.pop()
        span_id = record["span_id"]
        if span_id in seen:
            continue
        seen[span_id] = True
        stitched.append(record)
        queue.extend(children.get(span_id, ()))

    stitched.sort(key=lambda r: (r.get("start_unix_ns", 0), r["span_id"]))
    return stitched
