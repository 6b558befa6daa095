"""Market-window revenue model.

The paper motivates TTM economically: "In order for chip designers to
profit, products must meet time-to-market requirements to maximize
revenue" (Sec. 2.2, citing Philips [89]). This module implements the
classic triangular market-window model behind that argument.

An on-time product's weekly revenue rises linearly to a peak ``P`` at
the window midpoint ``W/2`` and declines linearly to zero at ``W``
(lifetime revenue ``W*P/2``). A product entering ``d`` weeks late rises
with the *same* slope from its entry until it hits the declining
envelope (competitors already own the early market), then follows the
envelope down. Geometry gives its lifetime revenue as
``P * (W - d)^2 / (2W)``, i.e. a loss fraction of

    loss(d) = d * (2W - d) / W^2                (triangle model)

The often-quoted McKinsey rule ``d * (3W - d) / (2 W^2)`` (which assumes
the late entrant also loses half its peak share) is provided as an
alternative; both are 0 at d = 0 and 1 at d = W, with McKinsey slightly
gentler in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError


def triangle_loss_fraction(delay_weeks: float, window_weeks: float) -> float:
    """Revenue loss fraction under the delayed-triangle geometry."""
    _validate(delay_weeks, window_weeks)
    if delay_weeks >= window_weeks:
        return 1.0
    w = window_weeks
    return delay_weeks * (2.0 * w - delay_weeks) / (w * w)


def triangle_loss_fractions(
    delay_weeks: np.ndarray, window_weeks: float
) -> np.ndarray:
    """Vectorized :func:`triangle_loss_fraction` over a delay sample.

    Negative delays (entering *earlier* than the reference) lose nothing;
    delays at or past the window forfeit everything. Used by the Monte
    Carlo layer to turn a TTM distribution into a revenue-loss
    distribution in one array expression.
    """
    if window_weeks <= 0.0:
        raise InvalidParameterError(
            f"market window must be positive, got {window_weeks}"
        )
    d = np.clip(np.asarray(delay_weeks, dtype=float), 0.0, window_weeks)
    w = window_weeks
    return d * (2.0 * w - d) / (w * w)


def mckinsey_loss_fraction(delay_weeks: float, window_weeks: float) -> float:
    """The McKinsey d(3W - d)/(2W^2) variant of the loss rule."""
    _validate(delay_weeks, window_weeks)
    if delay_weeks >= window_weeks:
        return 1.0
    w = window_weeks
    return delay_weeks * (3.0 * w - delay_weeks) / (2.0 * w * w)


def _validate(delay_weeks: float, window_weeks: float) -> None:
    if window_weeks <= 0.0:
        raise InvalidParameterError(
            f"market window must be positive, got {window_weeks}"
        )
    if delay_weeks < 0.0:
        raise InvalidParameterError(f"delay must be >= 0, got {delay_weeks}")


@dataclass(frozen=True)
class MarketWindow:
    """A product's revenue opportunity over time.

    Attributes
    ----------
    window_weeks:
        Total market-window length W (opening to saturation to close).
    peak_weekly_revenue_usd:
        Peak weekly revenue P at the window midpoint for an on-time entry.
    """

    window_weeks: float
    peak_weekly_revenue_usd: float

    def __post_init__(self) -> None:
        if self.window_weeks <= 0.0:
            raise InvalidParameterError(
                f"market window must be positive, got {self.window_weeks}"
            )
        if self.peak_weekly_revenue_usd <= 0.0:
            raise InvalidParameterError(
                "peak weekly revenue must be positive, got "
                f"{self.peak_weekly_revenue_usd}"
            )

    @property
    def on_time_revenue_usd(self) -> float:
        """Lifetime revenue of an on-time entry (triangle area W*P/2)."""
        return 0.5 * self.window_weeks * self.peak_weekly_revenue_usd

    @property
    def _slope(self) -> float:
        """Rise/decline slope of the envelope, USD/week per week."""
        return self.peak_weekly_revenue_usd / (self.window_weeks / 2.0)

    def weekly_revenue_usd(self, week: float, delay_weeks: float = 0.0) -> float:
        """Weekly revenue ``week`` weeks after the window opened.

        The delayed product rises at the on-time slope from its entry,
        peaks where it meets the declining envelope (at
        ``(W + d) / 2``), then follows the envelope down.
        """
        _validate(delay_weeks, self.window_weeks)
        w = self.window_weeks
        if week < delay_weeks or week >= w:
            return 0.0
        rise = self._slope * (week - delay_weeks)
        envelope_decline = self._slope * (w - week)
        return min(rise, envelope_decline)

    def loss_fraction(self, delay_weeks: float) -> float:
        """Fraction of on-time revenue forfeited (triangle model)."""
        return triangle_loss_fraction(delay_weeks, self.window_weeks)

    def revenue_usd(self, delay_weeks: float) -> float:
        """Lifetime revenue of an entry ``delay_weeks`` late."""
        return self.on_time_revenue_usd * (
            1.0 - self.loss_fraction(delay_weeks)
        )

    def marginal_loss_usd_per_week(self, delay_weeks: float) -> float:
        """d(revenue loss)/d(delay): what one *more* week of slip costs.

        Highest for the first weeks of slip — those forfeit the
        peak-building part of the window — and tapering toward zero as
        the window closes. The first week of delay is the most expensive
        week in the product's life, which is the whole case for treating
        time-to-market as a first-class design constraint.
        """
        _validate(delay_weeks, self.window_weeks)
        if delay_weeks >= self.window_weeks:
            return 0.0
        w = self.window_weeks
        derivative = 2.0 * (w - delay_weeks) / (w * w)
        return self.on_time_revenue_usd * derivative
