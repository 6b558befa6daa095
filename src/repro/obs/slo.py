"""Declarative SLOs with sliding-window burn rates for the serve stack.

An :class:`SLObjective` states, per endpoint, what "good" means:
a latency threshold that some fraction of requests must beat, and a
tolerated server-error fraction.  The :class:`SLOTracker` keeps a
sliding window of observations (endpoint, status, latency) and turns
them into *burn rates* — the observed bad fraction divided by the
error budget, the standard Google-SRE framing (one tally scores the
live window and, in :func:`report_from_records`, offline logs):

* burn < 1  — inside budget; sustaining this forever is fine;
* burn = 1  — spending the budget exactly as fast as it accrues;
* burn > 1  — out of budget if sustained; alertable.

Each serve role's :class:`~repro.obs.log.RequestLedger` holds one
tracker and observes every request the role answers: a worker's view
of its own requests, and the shard router's end-to-end view (the
forward hop and the 503s it answers itself included). Gauges are
refreshed into the metrics registry at ``/metrics`` scrape time, the
live status feeds ``GET /debug/obs``, and ``ttm-cas obs slo`` scores a
request log offline.

Error definition: HTTP 5xx only.  4xx are the caller's fault (bad
JSON, over-limit bodies, a client that stalls mid-request and gets its
408 after the read limit) and burn neither budget: not the error
budget, and not the latency budget either; a 429 (admission queue
full) is a capacity signal, counted by ``serve_rejected_total``
instead.  A 503 (draining, or no live worker at the router) is a 5xx
and burns the error budget.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from . import instrument

__all__ = [
    "DEFAULT_OBJECTIVES",
    "SLOTracker",
    "SLObjective",
    "report_from_records",
]


@dataclass(frozen=True)
class SLObjective:
    """``latency_objective`` of requests under ``latency_ms``; at most
    ``error_objective`` of requests may be server errors."""

    endpoint: str
    latency_ms: float
    latency_objective: float = 0.99
    error_objective: float = 0.01

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        for name in ("latency_objective", "error_objective"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")


#: Per-endpoint defaults scaled to each workload's weight: a point
#: evaluation is interactive; an MC ensemble or a scenario cube is not.
DEFAULT_OBJECTIVES: Tuple[SLObjective, ...] = (
    SLObjective("evaluate", latency_ms=500.0),
    SLObjective("mc", latency_ms=5_000.0),
    SLObjective("splits", latency_ms=30_000.0),
    SLObjective("scenarios", latency_ms=30_000.0),
)

_FALLBACK = SLObjective("default", latency_ms=1_000.0)


def _objective_map(
    objectives: Iterable[SLObjective],
) -> Dict[str, SLObjective]:
    return {o.endpoint: o for o in objectives}


def _burn(bad: int, total: int, budget: float) -> float:
    if total <= 0:
        return 0.0
    return (bad / total) / budget


def _tally(
    observations: Iterable[Tuple[str, int, float]],
    objectives: Dict[str, SLObjective],
    window_s: float,
) -> Dict[str, Dict[str, Any]]:
    """Per-endpoint burn rates of ``(endpoint, status, latency_ms)``
    observations: a 5xx is an error, a latency over the endpoint's
    objective is slow, and a 4xx, the caller's fault, is neither."""
    totals: Dict[str, List[int]] = {}
    for endpoint, status, latency_ms in observations:
        objective = objectives.get(endpoint, _FALLBACK)
        entry = totals.setdefault(endpoint, [0, 0, 0])
        entry[0] += 1
        entry[1] += int(status >= 500)
        entry[2] += int(
            not 400 <= status < 500 and latency_ms > objective.latency_ms
        )
    return {
        endpoint: _status_entry(
            objectives.get(endpoint, _FALLBACK), total, errors, slow, window_s
        )
        for endpoint, (total, errors, slow) in sorted(totals.items())
    }


def _status_entry(
    objective: SLObjective,
    total: int,
    errors: int,
    slow: int,
    window_s: float,
) -> Dict[str, Any]:
    error_burn = _burn(errors, total, objective.error_objective)
    latency_burn = _burn(slow, total, 1.0 - objective.latency_objective)
    return {
        "window_s": window_s,
        "requests": total,
        "errors": errors,
        "slow": slow,
        "latency_ms": objective.latency_ms,
        "latency_objective": objective.latency_objective,
        "error_objective": objective.error_objective,
        "error_burn_rate": round(error_burn, 6),
        "latency_burn_rate": round(latency_burn, 6),
        "ok": error_burn <= 1.0 and latency_burn <= 1.0,
    }


class SLOTracker:
    """Sliding-window SLO accounting; thread-safe, O(1) per request."""

    def __init__(
        self,
        objectives: Iterable[SLObjective] = DEFAULT_OBJECTIVES,
        window_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.objectives = _objective_map(objectives)
        self.window_s = float(window_s)
        self._clock = clock
        self._lock = threading.Lock()
        # (t, endpoint, status, latency_ms)
        self._events: Deque[Tuple[float, str, int, float]] = deque()

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        now = self._clock()
        with self._lock:
            self._events.append((now, endpoint, status, seconds * 1000.0))
            self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] < horizon:
            events.popleft()

    def status(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint burn rates over the live window."""
        with self._lock:
            self._prune(self._clock())
            observations = [event[1:] for event in self._events]
        return _tally(observations, self.objectives, self.window_s)

    def publish(self) -> None:
        """Refresh the ``serve_slo_*`` gauges (called at scrape time so
        idle servers cost nothing between scrapes)."""
        for endpoint, entry in self.status().items():
            instrument.record_slo(
                endpoint,
                error_burn=entry["error_burn_rate"],
                latency_burn=entry["latency_burn_rate"],
                ok=entry["ok"],
            )


def report_from_records(
    records: Iterable[Dict[str, Any]],
    objectives: Iterable[SLObjective] = DEFAULT_OBJECTIVES,
    window_s: Optional[float] = None,
) -> Dict[str, Dict[str, Any]]:
    """Offline SLO report from request-log records (``ttm-cas obs slo``).

    ``window_s`` restricts to the trailing window ending at the newest
    record's timestamp; ``None`` scores the whole file.
    """
    records = [r for r in records if "endpoint" in r and "status" in r]
    if window_s is not None and records:
        newest = max(r.get("ts_unix_ns", 0) for r in records)
        horizon = newest - window_s * 1e9
        records = [r for r in records if r.get("ts_unix_ns", 0) >= horizon]
    observations = []
    for record in records:
        try:
            status = int(record["status"])
        except (TypeError, ValueError):
            continue
        latency_ms = float(record.get("latency_ms") or 0.0)
        observations.append((str(record["endpoint"]), status, latency_ms))
    span = window_s if window_s is not None else 0.0
    return _tally(observations, _objective_map(objectives), span)
