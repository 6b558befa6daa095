"""Disruption timelines: scripted and stochastic supply-chain events.

The paper's narrative disruptions (fab fires, the 2021 shortage, drought
capacity cuts) are point scenarios in :mod:`repro.market.scenarios`.
This module makes them *events in time* and, for Monte Carlo, *random
variables*:

* :class:`DisruptionEvent` — one scripted event with a start week,
  duration, severity, and an optional node scope.
* :class:`DisruptionTimeline` — events composed over a base
  :class:`~repro.market.conditions.MarketConditions` (any scenario
  preset works as the base); ``conditions_at(week)`` yields the static
  conditions an order placed that week would face.
* :class:`EventEnsemble` / :class:`DisruptionModel` — the stochastic
  counterpart: each sample independently decides whether the event
  occurs and draws its start/duration/severity from uniform
  :class:`~repro.sensitivity.distributions.Factor` ranges. Sampling a
  :class:`DisruptionModel` yields per-node capacity-fraction arrays and
  a demand multiplier, ready for the batch kernels' per-sample
  ``capacity`` mapping.

Event semantics (while active):

* ``"fab_shutdown"``   — scoped nodes produce (almost) nothing: capacity
  is floored at :data:`MIN_CAPACITY_FRACTION` rather than zero, because
  the TTM model (scalar and batch alike) requires a positive wafer rate
  — a shutdown therefore surfaces as an extreme-but-finite TTM tail,
  which is exactly what the CVaR summaries are for.
* ``"capacity_shock"`` — scoped nodes lose ``severity`` of their rate
  (capacity x (1 - severity), same floor).
* ``"demand_spike"``   — demand is multiplied by ``1 + severity``.

An empty node scope means "all nodes".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import InvalidParameterError
from ..market.conditions import MarketConditions
from ..sensitivity.distributions import Factor
from ..technology.database import ROADMAP

#: Recognized disruption kinds.
KINDS: Tuple[str, ...] = ("fab_shutdown", "capacity_shock", "demand_spike")

#: Floor on a disrupted node's capacity fraction (TTM needs a positive
#: rate; a "full" shutdown leaves this trickle).
MIN_CAPACITY_FRACTION = 1e-3


def _capacity_multiplier(kind: str, severity: float) -> float:
    if kind == "fab_shutdown":
        return MIN_CAPACITY_FRACTION
    if kind == "capacity_shock":
        return max(MIN_CAPACITY_FRACTION, 1.0 - severity)
    return 1.0


@dataclass(frozen=True)
class DisruptionEvent:
    """One scripted disruption window.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    start_week / duration_weeks:
        Active over ``[start_week, start_week + duration_weeks)``.
    severity:
        Fraction of capacity lost (``capacity_shock``) or of extra
        demand (``demand_spike``); unused by ``fab_shutdown``.
    nodes:
        Node scope; empty tuple means every node.
    """

    kind: str
    start_week: float
    duration_weeks: float
    severity: float = 0.0
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.kind not in KINDS:
            raise InvalidParameterError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.start_week < 0.0:
            raise InvalidParameterError(
                f"start week must be >= 0, got {self.start_week}"
            )
        if self.duration_weeks <= 0.0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration_weeks}"
            )
        if not 0.0 <= self.severity <= 1.0 and self.kind == "capacity_shock":
            raise InvalidParameterError(
                f"capacity shock severity must be in [0, 1], got {self.severity}"
            )
        if self.severity < 0.0:
            raise InvalidParameterError(
                f"severity must be >= 0, got {self.severity}"
            )

    def active_at(self, week: float) -> bool:
        """Whether the event window covers ``week``."""
        return self.start_week <= week < self.start_week + self.duration_weeks

    def applies_to(self, node_name: str) -> bool:
        """Whether the event's scope includes a node."""
        return not self.nodes or node_name in self.nodes


@dataclass(frozen=True)
class DisruptionTimeline:
    """Scripted events composed over a base market scenario."""

    base: MarketConditions
    events: Tuple[DisruptionEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def capacity_multiplier_at(self, week: float, node_name: str) -> float:
        """Product of active capacity multipliers for one node."""
        multiplier = 1.0
        for event in self.events:
            if event.active_at(week) and event.applies_to(node_name):
                multiplier *= _capacity_multiplier(event.kind, event.severity)
        return multiplier

    def demand_multiplier_at(self, week: float) -> float:
        """Product of active demand-spike multipliers."""
        multiplier = 1.0
        for event in self.events:
            if event.kind == "demand_spike" and event.active_at(week):
                multiplier *= 1.0 + event.severity
        return multiplier

    def conditions_at(self, week: float) -> MarketConditions:
        """Static market conditions an order placed at ``week`` faces.

        Starts from the base scenario and multiplies each node's
        capacity fraction by the active events' multipliers. Queue
        quotes are inherited from the base unchanged.
        """
        fractions = {
            name: self.base.capacity_for(name)
            * self.capacity_multiplier_at(week, name)
            for name in ROADMAP
        }
        return MarketConditions(
            capacity_fraction=fractions,
            queue_weeks=self.base.queue_weeks,
            default_capacity=self.base.default_capacity,
            default_queue_weeks=self.base.default_queue_weeks,
        )


@dataclass(frozen=True)
class EventEnsemble:
    """A random disruption: occurrence flag plus uniform event ranges.

    Each sample flips an independent coin with ``probability`` of the
    event occurring, then draws start/duration/severity from the given
    :class:`Factor` ranges.
    """

    kind: str
    probability: float
    start_week: Factor
    duration_weeks: Factor
    severity: Factor
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.kind not in KINDS:
            raise InvalidParameterError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def sample(
        self, n_samples: int, rng: np.random.Generator
    ) -> "SampledEvents":
        """Draw ``n_samples`` independent realizations."""
        if n_samples <= 0:
            raise InvalidParameterError(
                f"sample count must be positive, got {n_samples}"
            )
        occurred = rng.random(n_samples) < self.probability
        start = self.start_week.scale(rng.random(n_samples))
        duration = self.duration_weeks.scale(rng.random(n_samples))
        severity = self.severity.scale(rng.random(n_samples))
        return SampledEvents(
            ensemble=self,
            occurred=occurred,
            start_week=start,
            duration_weeks=duration,
            severity=severity,
        )


@dataclass(frozen=True)
class SampledEvents:
    """Per-sample realizations of one :class:`EventEnsemble`."""

    ensemble: EventEnsemble
    occurred: np.ndarray
    start_week: np.ndarray
    duration_weeks: np.ndarray
    severity: np.ndarray

    def active_at(self, week: float) -> np.ndarray:
        """Boolean mask: event occurred and its window covers ``week``."""
        return (
            self.occurred
            & (self.start_week <= week)
            & (week < self.start_week + self.duration_weeks)
        )

    def capacity_multipliers_at(self, week: float) -> np.ndarray:
        """Per-sample capacity multiplier at ``week`` (1 where inactive)."""
        active = self.active_at(week)
        if self.ensemble.kind == "fab_shutdown":
            impact = np.full_like(self.severity, MIN_CAPACITY_FRACTION)
        elif self.ensemble.kind == "capacity_shock":
            impact = np.clip(1.0 - self.severity, MIN_CAPACITY_FRACTION, None)
        else:
            impact = np.ones_like(self.severity)
        return np.where(active, impact, 1.0)

    def demand_multipliers_at(self, week: float) -> np.ndarray:
        """Per-sample demand multiplier at ``week`` (1 where inactive)."""
        if self.ensemble.kind != "demand_spike":
            return np.ones_like(self.severity)
        return np.where(self.active_at(week), 1.0 + self.severity, 1.0)


@dataclass(frozen=True)
class DisruptionDraw:
    """One joint sample of a :class:`DisruptionModel`.

    ``capacity`` maps node name to a per-sample capacity-fraction array
    (base fraction x sampled multipliers at the order week) — exactly
    the mapping form ``evaluate``'s ``capacity`` accepts;
    ``demand_scale`` multiplies the per-sample order quantity.
    """

    capacity: Dict[str, np.ndarray] = field(default_factory=dict)
    demand_scale: Optional[np.ndarray] = None


@dataclass(frozen=True)
class DisruptionModel:
    """Random event ensembles over a base scenario, sampled at order time."""

    base: MarketConditions
    ensembles: Tuple[EventEnsemble, ...]
    order_week: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ensembles", tuple(self.ensembles))
        if not self.ensembles:
            raise InvalidParameterError(
                "a disruption model needs at least one ensemble"
            )
        if self.order_week < 0.0:
            raise InvalidParameterError(
                f"order week must be >= 0, got {self.order_week}"
            )

    def sample(
        self, n_samples: int, rng: np.random.Generator
    ) -> DisruptionDraw:
        """Draw the per-node capacity arrays and demand multipliers.

        Ensembles are sampled in declaration order (one rng stream), so
        a fixed seed reproduces the draw exactly.
        """
        draws = [e.sample(n_samples, rng) for e in self.ensembles]
        affected = set()
        for ensemble in self.ensembles:
            if ensemble.kind == "demand_spike":
                continue
            affected.update(ensemble.nodes or ROADMAP)
        capacity: Dict[str, np.ndarray] = {}
        for name in ROADMAP:
            if name not in affected:
                continue
            multiplier = np.ones(n_samples)
            for sampled in draws:
                if sampled.ensemble.kind == "demand_spike":
                    continue
                if not sampled.ensemble.nodes or name in sampled.ensemble.nodes:
                    multiplier = multiplier * sampled.capacity_multipliers_at(
                        self.order_week
                    )
            capacity[name] = np.maximum(
                self.base.capacity_for(name) * multiplier,
                MIN_CAPACITY_FRACTION,
            )
        demand = np.ones(n_samples)
        for sampled in draws:
            demand = demand * sampled.demand_multipliers_at(self.order_week)
        return DisruptionDraw(
            capacity=capacity,
            demand_scale=demand if not np.all(demand == 1.0) else None,
        )


__all__ = [
    "DisruptionDraw",
    "DisruptionEvent",
    "DisruptionModel",
    "DisruptionTimeline",
    "EventEnsemble",
    "KINDS",
    "MIN_CAPACITY_FRACTION",
    "SampledEvents",
]
