"""Dynamic foundry-queue simulation.

The TTM model abstracts foundry demand into a quoted lead time (Eq. 4:
``T_queue = N_ahead / mu_W``). The paper points at the supply-chain
literature's dynamic models (Sec. 8, citing Lin et al. [75] and Moench
et al. [84]) but stays static. This module closes that loop with a
discrete-time fluid simulation of one node's order book:

* each week, customers place orders (wafers) and the line starts up to
  ``mu_W(t)`` wafers from the backlog (FIFO);
* started wafers emerge ``L_fab`` weeks later;
* capacity shocks and demand surges are first-class events.

Two uses:

* **validation** — in steady state the simulated lead time of a probe
  order equals Eq. 4's backlog/rate, which a test asserts;
* **scenario generation** — :func:`lead_time_trace` converts a demand/
  capacity script into the per-week quoted queue a design would face,
  feeding :class:`~repro.market.conditions.MarketConditions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError


@dataclass(frozen=True)
class WeekState:
    """Snapshot of the order book at the end of one simulated week."""

    week: int
    demand_wafers: float
    capacity_wafers: float
    started_wafers: float
    backlog_wafers: float
    completed_wafers: float

    @property
    def quoted_lead_time_weeks(self) -> float:
        """Eq. 4 quote a new order would receive *now*."""
        if self.capacity_wafers <= 0.0:
            raise InvalidParameterError(
                "cannot quote a lead time with zero capacity"
            )
        return self.backlog_wafers / self.capacity_wafers


@dataclass
class FoundryQueue:
    """A single node's weekly order book and production line.

    Attributes
    ----------
    capacity_per_week:
        Nominal wafer starts per week (mu_W at full capacity).
    fab_latency_weeks:
        Whole weeks a started wafer spends in the line (L_fab).
    """

    capacity_per_week: float
    fab_latency_weeks: int
    backlog_wafers: float = 0.0
    week: int = 0
    _in_flight: List[float] = field(default_factory=list)
    history: List[WeekState] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity_per_week <= 0.0:
            raise InvalidParameterError(
                f"capacity must be positive, got {self.capacity_per_week}"
            )
        if self.fab_latency_weeks < 1:
            raise InvalidParameterError(
                f"fab latency must be >= 1 week, got {self.fab_latency_weeks}"
            )
        if self.backlog_wafers < 0.0:
            raise InvalidParameterError(
                f"backlog must be >= 0, got {self.backlog_wafers}"
            )
        # One pipeline slot per latency week; slot i completes in i+1 weeks.
        self._in_flight = [0.0] * self.fab_latency_weeks

    def step(
        self, demand_wafers: float, capacity_fraction: float = 1.0
    ) -> WeekState:
        """Advance one week: take orders, start wafers, finish wafers."""
        if demand_wafers < 0.0:
            raise InvalidParameterError(
                f"demand must be >= 0, got {demand_wafers}"
            )
        if capacity_fraction < 0.0:
            raise InvalidParameterError(
                f"capacity fraction must be >= 0, got {capacity_fraction}"
            )
        capacity = self.capacity_per_week * capacity_fraction
        self.backlog_wafers += demand_wafers
        started = min(self.backlog_wafers, capacity)
        self.backlog_wafers -= started
        completed = self._in_flight.pop(0)
        self._in_flight.append(started)
        self.week += 1
        state = WeekState(
            week=self.week,
            demand_wafers=demand_wafers,
            capacity_wafers=capacity,
            started_wafers=started,
            backlog_wafers=self.backlog_wafers,
            completed_wafers=completed,
        )
        self.history.append(state)
        return state

    @property
    def wafers_in_flight(self) -> float:
        """Wafers started but not yet out of the line."""
        return sum(self._in_flight)

    def total_completed(self) -> float:
        """Wafers delivered since the start of the simulation."""
        return sum(state.completed_wafers for state in self.history)

    def conservation_error(self, total_demand: float) -> float:
        """|demand - (backlog + in flight + completed)| (must be ~0)."""
        accounted = (
            self.backlog_wafers + self.wafers_in_flight + self.total_completed()
        )
        return abs(total_demand - accounted)


@dataclass(frozen=True)
class DemandScript:
    """A weekly demand/capacity scenario for one node.

    ``demand`` is wafers ordered per week; ``capacity_fraction`` (same
    length, default all-1.0) models production-side disruptions.
    """

    demand: Tuple[float, ...]
    capacity_fraction: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand", tuple(self.demand))
        fractions = tuple(self.capacity_fraction) or tuple(
            1.0 for _ in self.demand
        )
        object.__setattr__(self, "capacity_fraction", fractions)
        if not self.demand:
            raise InvalidParameterError("demand script must be non-empty")
        if len(self.capacity_fraction) != len(self.demand):
            raise InvalidParameterError(
                "capacity fractions must match the demand length"
            )

    @classmethod
    def steady(
        cls, weeks: int, demand_per_week: float
    ) -> "DemandScript":
        """Constant demand, full capacity."""
        if weeks < 1:
            raise InvalidParameterError(f"weeks must be >= 1, got {weeks}")
        return cls(demand=tuple(demand_per_week for _ in range(weeks)))

    def with_demand_surge(
        self, start: int, duration: int, multiplier: float
    ) -> "DemandScript":
        """A COVID-style surge: demand x multiplier for a window."""
        demand = list(self.demand)
        for week in range(start, min(start + duration, len(demand))):
            demand[week] *= multiplier
        return DemandScript(
            demand=tuple(demand), capacity_fraction=self.capacity_fraction
        )

    def with_capacity_outage(
        self, start: int, duration: int, fraction: float
    ) -> "DemandScript":
        """A fab-fire-style outage: capacity x fraction for a window."""
        fractions = list(self.capacity_fraction)
        for week in range(start, min(start + duration, len(fractions))):
            fractions[week] *= fraction
        return DemandScript(demand=self.demand, capacity_fraction=tuple(fractions))


def simulate(
    queue: FoundryQueue, script: DemandScript
) -> List[WeekState]:
    """Run a script through a queue, returning the weekly states."""
    return [
        queue.step(demand, fraction)
        for demand, fraction in zip(script.demand, script.capacity_fraction)
    ]


def lead_time_trace(
    capacity_per_week: float,
    fab_latency_weeks: int,
    script: DemandScript,
) -> List[float]:
    """Quoted lead time (weeks) a new order would face, week by week.

    This is the dynamic counterpart of the static ``queue_weeks`` input:
    feed any entry into ``MarketConditions.with_queue`` to evaluate a
    design that places its order that week.
    """
    queue = FoundryQueue(
        capacity_per_week=capacity_per_week,
        fab_latency_weeks=fab_latency_weeks,
    )
    states = simulate(queue, script)
    return [state.quoted_lead_time_weeks for state in states]


def order_completion_week(
    queue_states: Sequence[WeekState],
    order_week: int,
    order_wafers: float,
    capacity_per_week: float,
    fab_latency_weeks: int,
) -> Optional[float]:
    """Week a probe order placed at ``order_week`` would fully ship.

    Approximates the order's drain through the backlog present at order
    time (FIFO): the order's last wafer starts once the backlog plus its
    own wafers have been started, then spends L_fab in the line. Returns
    ``None`` if the scripted horizon ends first.
    """
    if order_week < 0 or order_week >= len(queue_states):
        raise InvalidParameterError(
            f"order week {order_week} outside the simulated horizon"
        )
    if order_wafers <= 0.0:
        raise InvalidParameterError(
            f"order must be positive, got {order_wafers}"
        )
    ahead = queue_states[order_week].backlog_wafers
    remaining = ahead + order_wafers
    for state in queue_states[order_week + 1:]:
        remaining -= state.started_wafers
        if remaining <= 0.0:
            return state.week + fab_latency_weeks
    return None


def summarize(states: Sequence[WeekState]) -> Dict[str, float]:
    """Headline statistics of a simulated horizon."""
    if not states:
        raise InvalidParameterError("no states to summarize")
    lead_times = [s.quoted_lead_time_weeks for s in states]
    return {
        "weeks": float(len(states)),
        "peak_backlog_wafers": max(s.backlog_wafers for s in states),
        "peak_lead_time_weeks": max(lead_times),
        "final_lead_time_weeks": lead_times[-1],
        "total_completed_wafers": sum(s.completed_wafers for s in states),
        "utilization": sum(s.started_wafers for s in states)
        / sum(s.capacity_wafers for s in states),
    }
