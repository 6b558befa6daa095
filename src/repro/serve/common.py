"""What the serve worker and the shard router both read, without NumPy.

``ttm-cas serve --workers N`` runs two roles in separate processes: the
workers (:mod:`repro.serve.server`) evaluate the model, and the router
(:mod:`repro.serve.shard`) only reads each request's JSON to pick a
worker. The router must agree with the workers on request defaults,
endpoints, the wire encoding and the server settings, so those live
here, once, in a module that imports nothing NumPy-backed; the router
process never loads the engine. :mod:`repro.serve.protocol` and
:mod:`repro.serve.server` re-export every name under its old path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, Optional, Tuple

#: Endpoints served through the coalescing batcher.
BATCHED_ENDPOINTS: Tuple[str, ...] = ("evaluate", "mc", "splits", "scenarios")

#: Defaults of every omittable request field (``design`` is required
#: except on /splits). The parsers and the shard router's
#: ``routing_key`` all read this one mapping, so a batcher group and its
#: route never disagree about an omitted field.
REQUEST_DEFAULTS: Mapping[str, Any] = MappingProxyType(
    {
        "scenario": "nominal",
        "n_chips": 1e7,
        "design": "a11",
        "refine": False,
        "with_cas": True,
        "samples": 1024,
        "seed": 0,
        "with_cost": True,
        "correlated": False,
        "variation": 0.1,
        "queue_weeks": 2.0,
        "capacity": 0.9,
    }
)

#: The supply-spec knobs of a study, in group-key order.
SPEC_KNOBS: Tuple[str, ...] = (
    "n_chips", "variation", "queue_weeks", "capacity",
)

class BadRequestError(Exception):
    """A request the protocol rejects; maps to HTTP 400."""

    def __init__(self, message: str, code: str = "invalid_request") -> None:
        super().__init__(message)
        self.code = code


def canonical_json(value: Any) -> bytes:
    """The canonical wire encoding: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def error_body(code: str, message: str) -> bytes:
    """The structured error payload every non-2xx response carries."""
    return canonical_json({"error": {"code": code, "message": message}})


def normalize_stress_selector(value: Any) -> Tuple[str, ...]:
    """Normalize a /scenarios ``scenarios`` field to a selector tuple.

    Shared with the shard router's :func:`~repro.serve.shard.routing_key`
    (which must not resolve or validate), so the batcher group key and
    the routing key agree on the selector's canonical spelling.
    """
    if value is None:
        return ("all",)
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and value and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    raise BadRequestError(
        "field 'scenarios' must be a selector string or a non-empty "
        f"list of selector strings, got {value!r}"
    )


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`~repro.serve.server.EvalServer` (CLI
    flags map 1:1).

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


__all__ = [
    "BATCHED_ENDPOINTS",
    "BadRequestError",
    "REQUEST_DEFAULTS",
    "SPEC_KNOBS",
    "ServerConfig",
    "canonical_json",
    "error_body",
    "normalize_stress_selector",
]
