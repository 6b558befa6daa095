"""Instrumentation hooks the engine and montecarlo layers call.

This module is the only obs surface the hot paths touch. It pre-registers
the standard instrument set on the process-wide registry (so a metrics
dump always shows the full set, fired or not) and exposes:

* :func:`observed_kernel` — a decorator counting kernel invocations and
  element throughput (labelled by kernel), and spanning the call when a
  tracer is installed;
* :func:`guard_trip` — non-finite guard trips (Sobol, metric summaries);
* :func:`cache_counters` — the invariant-LRU hit/miss/eviction counters
  (the public home of what used to be private module ints).

Overhead contract: with no tracer installed the per-call cost is one
tracer check and two dict updates under one lock — nanoseconds against
kernels that do milliseconds of array math.
``tests/obs/test_overhead.py`` holds it to <= 2% of a figures pass and
of a stress-study pass (exact hook count x per-hook cost / pass CPU).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional, Tuple, TypeVar

from . import trace
from .metrics import Counter, Gauge, get_registry

F = TypeVar("F", bound=Callable[..., Any])

_registry = get_registry()

#: Invariant-LRU counters, promoted from the cache's private ints.
CACHE_HITS = _registry.counter(
    "invariant_cache_hits_total", "Invariant-LRU lookups served from cache"
)
CACHE_MISSES = _registry.counter(
    "invariant_cache_misses_total", "Invariant-LRU lookups that recomputed"
)
CACHE_EVICTIONS = _registry.counter(
    "invariant_cache_evictions_total",
    "Entries dropped by the invariant-LRU size bound",
)
CACHE_ENTRIES = _registry.gauge(
    "invariant_cache_entries", "Entries currently held by the invariant LRU"
)

KERNEL_INVOCATIONS = _registry.counter(
    "engine_kernel_invocations_total",
    "Vectorized kernel calls, labelled by kernel",
)
KERNEL_ELEMENTS = _registry.counter(
    "engine_kernel_elements_total",
    "Result elements produced by vectorized kernels, labelled by kernel",
)

GUARD_TRIPS = _registry.counter(
    "nonfinite_guard_trips_total",
    "NaN/inf guard rejections, labelled by guard site",
)


#: The ``serve_*`` family: the repro.serve request/batcher instruments.
#: Pre-registered like everything else so ``/metrics`` always exposes
#: the full family, traffic or not. The coalesce ratio is derivable as
#: ``serve_batched_requests_total / serve_batches_total``.
SERVE_REQUESTS = _registry.counter(
    "serve_requests_total",
    "HTTP requests handled, labelled by endpoint and status code",
)
SERVE_REQUEST_SECONDS = _registry.histogram(
    "serve_request_seconds",
    "End-to-end request latency (admission to response), by endpoint",
    buckets=(
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    ),
)
SERVE_QUEUE_DEPTH = _registry.gauge(
    "serve_queue_depth",
    "Requests admitted by the batcher and not yet completed",
)
SERVE_BATCHES = _registry.counter(
    "serve_batches_total",
    "Fused batch executions, labelled by endpoint",
)
SERVE_BATCHED_REQUESTS = _registry.counter(
    "serve_batched_requests_total",
    "Requests carried by fused batches, labelled by endpoint",
)
SERVE_BATCH_SIZE = _registry.histogram(
    "serve_batch_size",
    "Requests coalesced per fused batch, labelled by endpoint",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)
SERVE_BATCH_FILL = _registry.histogram(
    "serve_batch_fill",
    "Fraction of max_batch each fused batch filled, labelled by "
    "endpoint (mass near the lowest buckets means requests arrive "
    "while their group is idle, so each flushes alone; mass at 1.0 "
    "means max_batch caps fusion)",
    buckets=(0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
)
SERVE_REJECTED = _registry.counter(
    "serve_rejected_total",
    "Requests refused before evaluation, labelled by reason "
    "(queue_full/deadline/draining)",
)
SERVE_ROUTED = _registry.counter(
    "serve_routed_total",
    "Requests the shard router forwarded, labelled by worker slot",
)
SERVE_WORKERS_ALIVE = _registry.gauge(
    "serve_workers_alive",
    "Shard worker processes currently alive (supervisor view)",
)
SERVE_WORKER_RESPAWNS = _registry.counter(
    "serve_worker_respawns_total",
    "Dead shard workers replaced by the supervisor, labelled by worker",
)

SERVE_SLO_ERROR_BURN = _registry.gauge(
    "serve_slo_error_burn_rate",
    "Sliding-window error burn rate per endpoint (>1 = out of budget)",
)

SERVE_SLO_LATENCY_BURN = _registry.gauge(
    "serve_slo_latency_burn_rate",
    "Sliding-window latency burn rate per endpoint (>1 = out of budget)",
)

SERVE_SLO_OK = _registry.gauge(
    "serve_slo_ok",
    "1 when the endpoint is inside both SLO budgets, else 0",
)


def cache_counters() -> Tuple[Counter, Counter, Counter, Gauge]:
    """The (hits, misses, evictions, entries) cache instruments."""
    return CACHE_HITS, CACHE_MISSES, CACHE_EVICTIONS, CACHE_ENTRIES


def record_request(endpoint: str, status: int, seconds: float) -> None:
    """Count one finished HTTP request and observe its latency."""
    SERVE_REQUESTS.inc(endpoint=endpoint, status=str(status))
    SERVE_REQUEST_SECONDS.observe(float(seconds), endpoint=endpoint)


def record_batch(
    endpoint: str, size: int, max_batch: Optional[int] = None
) -> None:
    """Count one fused batch execution of ``size`` coalesced requests.

    When ``max_batch`` is given, also observes the batch *fill ratio*
    (``size / max_batch``): ratios stuck near ``1/max_batch`` say
    requests reach an idle group and flush alone (light load — no wait
    to pay), ratios pinned at 1.0 say ``max_batch`` is the binding
    constraint.
    """
    SERVE_BATCHES.inc(endpoint=endpoint)
    SERVE_BATCHED_REQUESTS.inc(float(size), endpoint=endpoint)
    SERVE_BATCH_SIZE.observe(float(size), endpoint=endpoint)
    if max_batch is not None and max_batch > 0:
        SERVE_BATCH_FILL.observe(
            float(size) / float(max_batch), endpoint=endpoint
        )


def record_rejection(reason: str) -> None:
    """Count one admission-control rejection (``reason`` names why)."""
    SERVE_REJECTED.inc(reason=reason)


def record_route(worker: int) -> None:
    """Count one request the shard router forwarded to ``worker``."""
    SERVE_ROUTED.inc(worker=str(worker))


def record_respawn(worker: int) -> None:
    """Count one dead worker the supervisor replaced."""
    SERVE_WORKER_RESPAWNS.inc(worker=str(worker))


def set_workers_alive(count: int) -> None:
    """Publish the supervisor's live-worker gauge."""
    SERVE_WORKERS_ALIVE.set(float(count))


def record_slo(
    endpoint: str, error_burn: float, latency_burn: float, ok: bool
) -> None:
    """Publish one endpoint's SLO burn rates (refreshed at scrape time
    by :meth:`repro.obs.slo.SLOTracker.publish`, never per-request)."""
    SERVE_SLO_ERROR_BURN.set(float(error_burn), endpoint=endpoint)
    SERVE_SLO_LATENCY_BURN.set(float(latency_burn), endpoint=endpoint)
    SERVE_SLO_OK.set(1.0 if ok else 0.0, endpoint=endpoint)


def set_queue_depth(depth: int) -> None:
    """Publish the batcher's admitted-but-uncompleted request count."""
    SERVE_QUEUE_DEPTH.set(float(depth))


def guard_trip(guard: str) -> None:
    """Count one non-finite guard rejection at ``guard``."""
    GUARD_TRIPS.inc(guard=guard)


def observed_kernel(kernel: str, elements: Callable[[Any], int]):
    """Decorate a batch kernel with invocation/throughput accounting.

    ``elements`` maps the kernel's result to its element count (e.g.
    ``lambda r: r.total_weeks.size``). With a tracer installed the call
    also runs under a span named after the kernel, with the element
    count and result shape attached; with no tracer the only cost is
    the two counter adds.
    """

    def decorate(function: F) -> F:
        # The label key is precomputed (in Counter._label_key's form),
        # so the no-tracer fast path stays a tracer check and two dict
        # updates under one shared lock (the registry's).
        key = (("kernel", str(kernel)),)
        lock = KERNEL_INVOCATIONS._lock
        invocations = KERNEL_INVOCATIONS._values
        element_totals = KERNEL_ELEMENTS._values

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = trace._INSTALLED
            if tracer is None:
                result = function(*args, **kwargs)
                count = float(elements(result))
                with lock:
                    invocations[key] = invocations.get(key, 0.0) + 1.0
                    element_totals[key] = (
                        element_totals.get(key, 0.0) + count
                    )
                return result
            with tracer.span(kernel) as active:
                result = function(*args, **kwargs)
                count = float(elements(result))
                active.set("elements", int(count))
            KERNEL_INVOCATIONS._inc_key(key)
            KERNEL_ELEMENTS._inc_key(key, count)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


__all__ = [
    "CACHE_ENTRIES",
    "CACHE_EVICTIONS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "GUARD_TRIPS",
    "KERNEL_ELEMENTS",
    "KERNEL_INVOCATIONS",
    "SERVE_BATCHED_REQUESTS",
    "SERVE_BATCHES",
    "SERVE_BATCH_SIZE",
    "SERVE_QUEUE_DEPTH",
    "SERVE_REJECTED",
    "SERVE_REQUESTS",
    "SERVE_REQUEST_SECONDS",
    "SERVE_ROUTED",
    "SERVE_SLO_ERROR_BURN",
    "SERVE_SLO_LATENCY_BURN",
    "SERVE_SLO_OK",
    "SERVE_WORKERS_ALIVE",
    "SERVE_WORKER_RESPAWNS",
    "cache_counters",
    "guard_trip",
    "observed_kernel",
    "record_batch",
    "record_rejection",
    "record_request",
    "record_respawn",
    "record_route",
    "record_slo",
    "set_queue_depth",
    "set_workers_alive",
]
