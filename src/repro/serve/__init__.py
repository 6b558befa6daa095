"""repro.serve: the multi-tenant coalescing evaluation service.

An async HTTP/JSON server on the stdlib's ``asyncio`` (no web
framework) that exposes the repro engine to concurrent callers:

* :mod:`repro.serve.batcher` — the coalescing micro-batcher: concurrent
  requests with compatible shapes fuse into one engine dispatch sharing
  the warm process-wide invariant cache;
* :mod:`repro.serve.protocol` — request parsing, compatibility keys,
  the shared :class:`ServeState` (interned designs, memoized scenario
  models), and the fused batch executors;
* :mod:`repro.serve.server` — the eight routes (``POST /evaluate``,
  ``/mc``, ``/splits``, ``/scenarios``; ``GET /healthz``, ``/metrics``,
  ``/debug/obs``, ``/debug/trace``), backpressure, deadlines, drain;
* :mod:`repro.serve.shard` — the prefork worker pool: a parent-side
  sticky router (rendezvous-hashed coalescing groups) on the same
  routes, fleet-wide ``/metrics``, ``/healthz`` and ``/debug/*``,
  rolling drain and worker respawn;
* :mod:`repro.serve.wire` — the one HTTP/1.1 layer both speak, with
  bounded reads (an idle close, a 408), and the thread harness;
* :mod:`repro.serve.common` — what both roles read: the endpoints,
  request defaults, error type and body, canonical JSON and
  :class:`ServerConfig`;
* :mod:`repro.serve.client` — a small blocking client used by the tests
  and the smoke script (opt-in 429 retry with jittered
  ``Retry-After`` backoff).

The contract callers rely on: a coalesced response is byte-identical to
the response the same request would get alone on an idle server — with
or without sharding. Batch size is surfaced only in the
``X-Batch-Size`` header, never in a body.

The two roles of ``serve --workers N`` import what they run, and no
more. A worker loads NumPy, the engine and the Monte Carlo layer it
evaluates. The router reads JSON and forwards bytes: ``shard``,
``wire`` and ``common`` import no NumPy-backed module, and this package
imports a submodule only when one of its names is first read
(:mod:`repro._lazy`), so the router process never maps NumPy.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".batcher": (
            "BatchFunction",
            "CoalescingBatcher",
            "QueueFullError",
            "ServerClosingError",
        ),
        ".client": (
            "ServeClient",
            "ServeClientError",
            "ServeResponse",
            "ServerDrainingError",
        ),
        ".common": (
            "BATCHED_ENDPOINTS",
            "BadRequestError",
            "ServerConfig",
            "canonical_json",
        ),
        ".protocol": ("ServeState", "parse_request"),
        ".server": ("EvalServer", "ServerThread"),
        ".shard": (
            "ShardConfig",
            "ShardSupervisor",
            "ShardThread",
            "WorkerUnavailableError",
            "rendezvous_worker",
            "routing_key",
        ),
    },
)

__all__ = [
    "BATCHED_ENDPOINTS",
    "BadRequestError",
    "BatchFunction",
    "CoalescingBatcher",
    "EvalServer",
    "QueueFullError",
    "ServeClient",
    "ServeClientError",
    "ServeResponse",
    "ServeState",
    "ServerClosingError",
    "ServerConfig",
    "ServerDrainingError",
    "ServerThread",
    "ShardConfig",
    "ShardSupervisor",
    "ShardThread",
    "WorkerUnavailableError",
    "canonical_json",
    "parse_request",
    "rendezvous_worker",
    "routing_key",
]
