"""Distribution summaries for Monte Carlo studies.

Every metric (TTM weeks, CAS, cost per chip, revenue loss) is an array
of per-sample outcomes; this module reduces those arrays to the three
artifacts the uncertainty literature reports:

* **percentile bands** — the 5/25/50/75/95 quantiles;
* **exceedance curves** — ``P(X > t)`` over a threshold grid (survival
  function), the standard way to read "chance of missing the window";
* **CVaR tails** — value-at-risk at a confidence level plus the mean of
  the samples beyond it. For "bigger is worse" metrics (TTM, cost) the
  tail is the *upper* one; for "bigger is better" metrics (CAS) the
  *lower* one.

All three come from one kernel, :func:`summarize_block`, which reduces
a (rows x samples) block of one metric at once; a row is one study
cell's samples (one design, or one scenario x design). The single-array
entry points (:meth:`MetricSummary.from_samples`,
:meth:`ExceedanceCurve.from_samples`, :func:`conditional_value_at_risk`)
are one-row calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..errors import InvalidParameterError
from ..obs.instrument import guard_trip

#: Default percentile band.
PERCENTILES: Tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)

#: Default CVaR confidence level.
DEFAULT_TAIL_LEVEL = 0.95

#: Recognized tail directions.
TAILS: Tuple[str, ...] = ("upper", "lower")


@dataclass(frozen=True)
class MetricSummary:
    """Moments, percentile band, and CVaR tail of one sampled metric."""

    name: str
    n_samples: int
    mean: float
    std: float
    minimum: float
    maximum: float
    percentiles: Mapping[float, float]
    tail: str
    tail_level: float
    var: float
    cvar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "percentiles", dict(self.percentiles))
        if self.tail not in TAILS:
            raise InvalidParameterError(
                f"tail must be one of {TAILS}, got {self.tail!r}"
            )

    @classmethod
    def from_samples(
        cls,
        name: str,
        samples: np.ndarray,
        tail: str = "upper",
        tail_level: float = DEFAULT_TAIL_LEVEL,
        percentiles: Sequence[float] = PERCENTILES,
    ) -> "MetricSummary":
        """Summarize one metric's sample array.

        ``tail="upper"`` reports VaR as the ``tail_level`` quantile and
        CVaR as the mean of samples at or above it (risk = large
        values); ``tail="lower"`` mirrors both to the ``1 - tail_level``
        quantile (risk = small values, e.g. agility collapsing).
        """
        summary, _ = summarize_block(
            name,
            _one_row(samples),
            tail=tail,
            tail_level=tail_level,
            percentiles=percentiles,
        )[0]
        return summary

    @property
    def median(self) -> float:
        """The 50th percentile (if requested in the band)."""
        try:
            return self.percentiles[50.0]
        except KeyError:
            raise InvalidParameterError(
                f"metric {self.name!r} was summarized without the median"
            ) from None

    def band(self, low: float = 5.0, high: float = 95.0) -> Tuple[float, float]:
        """A (low, high) percentile interval from the stored band."""
        try:
            return (self.percentiles[low], self.percentiles[high])
        except KeyError as missing:
            raise InvalidParameterError(
                f"percentile {missing} not in stored band "
                f"{sorted(self.percentiles)}"
            ) from None


@dataclass(frozen=True)
class ExceedanceCurve:
    """``P(X > t)`` over a threshold grid (empirical survival function)."""

    name: str
    thresholds: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        if len(self.thresholds) != len(self.probabilities):
            raise InvalidParameterError(
                "thresholds and probabilities must have equal length"
            )

    @classmethod
    def from_samples(
        cls, name: str, samples: np.ndarray, n_points: int = 33
    ) -> "ExceedanceCurve":
        """Evaluate the survival function on an even threshold grid."""
        _, curve = summarize_block(
            name, _one_row(samples), curve_points=n_points
        )[0]
        return curve

    def probability_above(self, threshold: float) -> float:
        """Linear interpolation of ``P(X > threshold)`` on the grid."""
        return float(
            np.interp(
                threshold,
                self.thresholds,
                self.probabilities,
                left=self.probabilities[0],
                right=self.probabilities[-1],
            )
        )


@dataclass(frozen=True)
class StudyResult:
    """All summarized metrics of one Monte Carlo study."""

    design: str
    processes: Tuple[str, ...]
    n_samples: int
    seed: int
    summaries: Mapping[str, MetricSummary] = field(default_factory=dict)
    curves: Mapping[str, ExceedanceCurve] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "summaries", dict(self.summaries))
        object.__setattr__(self, "curves", dict(self.curves))

    def __getitem__(self, metric: str) -> MetricSummary:
        try:
            return self.summaries[metric]
        except KeyError:
            known = ", ".join(sorted(self.summaries))
            raise KeyError(
                f"unknown metric {metric!r} (known: {known})"
            ) from None

    def table(self) -> str:
        """Percentile band + tail summary, one row per metric."""
        headers = [
            "metric", "mean", "p5", "p25", "p50", "p75", "p95",
            "VaR", "CVaR", "tail",
        ]
        rows = []
        for name, summary in self.summaries.items():
            rows.append(
                [
                    name,
                    summary.mean,
                    summary.percentiles.get(5.0, float("nan")),
                    summary.percentiles.get(25.0, float("nan")),
                    summary.percentiles.get(50.0, float("nan")),
                    summary.percentiles.get(75.0, float("nan")),
                    summary.percentiles.get(95.0, float("nan")),
                    summary.var,
                    summary.cvar,
                    summary.tail,
                ]
            )
        return format_table(headers, rows)


def _one_row(samples: np.ndarray) -> np.ndarray:
    """Any sample array as a one-row (1 x samples) block."""
    return np.asarray(samples, dtype=float).reshape(1, -1)


def _sorted_quantiles(
    ordered: np.ndarray, levels: Sequence[float]
) -> np.ndarray:
    """``np.percentile(ordered, levels, axis=1).T`` read from sorted rows.

    ``np.percentile`` would copy and partition rows that are already
    sorted; this takes its ``linear`` method's neighbours by index
    instead and replays its arithmetic operation for operation: the
    virtual index ``(n - 1) * q``, both neighbours clamped to the last
    sample at or past it, ``gamma`` against the clamped index, and
    ``_lerp``'s ``b - diff * (1 - t)`` branch where ``t >= 0.5``. So
    the result is ``np.percentile``'s, bit for bit. ``levels`` must lie
    in [0, 100].
    """
    n_samples = ordered.shape[1]
    virtual = (n_samples - 1) * np.true_divide(levels, 100)
    previous = np.floor(virtual)
    following = previous + 1
    clamped = virtual >= n_samples - 1
    previous[clamped] = -1
    following[clamped] = -1
    previous = previous.astype(np.intp)
    gamma = virtual - previous
    low = ordered[:, previous]
    high = ordered[:, following.astype(np.intp)]
    diff = high - low
    result = low + diff * gamma
    np.subtract(high, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def _exceedance_grids(
    first: np.ndarray, last: np.ndarray, points: int
) -> np.ndarray:
    """Each row's ``np.linspace(first, last, points)``, in one pass.

    Per row this is ``np.linspace``'s own arithmetic, including its
    branch for a step that underflows to 0 (``ramp / div * delta``),
    which is chosen per row: a constant row leaves the other rows'
    grids alone.
    """
    div = points - 1
    delta = last - first
    step = delta / div
    ramp = np.arange(points, dtype=float)
    grids = ramp * step[:, None]
    flat = step == 0
    if flat.any():
        grids[flat] = ramp / div * delta[flat, None]
    grids += first[:, None]
    grids[:, -1] = last
    return grids


def summarize_block(
    name: str,
    block: np.ndarray,
    tail: str = "upper",
    tail_level: float = DEFAULT_TAIL_LEVEL,
    percentiles: Sequence[float] = PERCENTILES,
    curve_points: int = 33,
) -> List[Tuple[MetricSummary, ExceedanceCurve]]:
    """Summarize each row of a (rows x samples) block of one metric.

    Returns one ``(summary, curve)`` pair per row, as
    :meth:`MetricSummary.from_samples` and
    :meth:`ExceedanceCurve.from_samples` define them. The block is
    sorted once along its rows; every row's VaR level and band are read
    from the sorted rows by index, and every row's exceedance grid is
    built in one ``linspace`` pass, each replaying NumPy's arithmetic
    (``np.percentile``, ``np.linspace``) bit for bit. Moments are
    row-axis reductions, and ``std`` reuses the means as ``np.std``
    would compute them. The tail mask is formed once per block; per row
    remain the CVaR sum, over the tail samples in sample order as
    ``np.mean`` takes it, and the exceedance ``searchsorted``.

    A row's result depends on that row alone, so a coalesced study's
    cells equal the solo study's.
    """
    # Reductions along axis 1 equal the 1-D ones only on C-ordered rows.
    values = np.ascontiguousarray(block, dtype=float)
    if values.ndim != 2:
        raise InvalidParameterError(
            f"metric {name!r}: expected a (rows x samples) block, got "
            f"shape {values.shape}"
        )
    n_samples = values.shape[1]
    if n_samples == 0:
        raise InvalidParameterError(f"metric {name!r}: no samples")
    if not np.isfinite(values).all():
        guard_trip("metric_summary")
        raise InvalidParameterError(
            f"metric {name!r}: samples contain non-finite values"
        )
    if tail not in TAILS:
        raise InvalidParameterError(
            f"tail must be one of {TAILS}, got {tail!r}"
        )
    if not 0.5 < tail_level < 1.0:
        raise InvalidParameterError(
            f"tail level must be in (0.5, 1), got {tail_level}"
        )
    if curve_points < 2:
        raise InvalidParameterError(
            f"need >= 2 grid points, got {curve_points}"
        )
    band = [float(p) for p in percentiles]
    for p in band:
        if not 0.0 <= p <= 100.0:
            raise InvalidParameterError(
                f"percentiles must be in [0, 100], got {p}"
            )
    upper = tail == "upper"
    var_level = 100.0 * tail_level if upper else 100.0 * (1.0 - tail_level)
    # Finite samples can still overflow a sum, a square or the range;
    # those rows are refused below instead of summarized as inf/NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        row_means = values.mean(axis=1)
        # ``np.std``'s own steps, on the means already taken.
        deviations = values - row_means[:, None]
        np.square(deviations, out=deviations)
        row_stds = np.sqrt(np.add.reduce(deviations, axis=1) / n_samples)
        del deviations  # freed before the sort copies the block
        ordered = np.sort(values, axis=1)
        spans = ordered[:, -1] - ordered[:, 0]
    overflowed = ~(
        np.isfinite(row_means) & np.isfinite(row_stds) & np.isfinite(spans)
    )
    if overflowed.any():
        guard_trip("metric_summary")
        row = int(np.argmax(overflowed))
        raise InvalidParameterError(
            f"metric {name!r}: row {row} overflows the float range (mean "
            f"{row_means[row]}, std {row_stds[row]}, range {spans[row]})"
        )
    stds = row_stds.tolist()
    quantiles = _sorted_quantiles(ordered, [var_level] + band)
    var_column = quantiles[:, :1]
    in_tail = values >= var_column if upper else values <= var_column
    grids = _exceedance_grids(ordered[:, 0], ordered[:, -1], curve_points)
    thresholds = grids.tolist()
    means = row_means.tolist()
    minima = values.min(axis=1).tolist()
    maxima = values.max(axis=1).tolist()
    out: List[Tuple[MetricSummary, ExceedanceCurve]] = []
    for r, (var, *levels) in enumerate(quantiles.tolist()):
        # In sample order: a mean over the sorted suffix differs in the
        # last bits.
        tail_values = values[r][in_tail[r]]
        # P(X > t) = (count of samples strictly above t) / n.
        above = n_samples - np.searchsorted(
            ordered[r], grids[r], side="right"
        )
        summary = MetricSummary(
            name=name,
            n_samples=n_samples,
            mean=means[r],
            std=stds[r],
            minimum=minima[r],
            maximum=maxima[r],
            percentiles=dict(zip(band, levels)),
            tail=tail,
            tail_level=tail_level,
            var=var,
            cvar=float(np.add.reduce(tail_values) / tail_values.size),
        )
        curve = ExceedanceCurve(
            name=name,
            thresholds=thresholds[r],
            probabilities=(above / n_samples).tolist(),
        )
        out.append((summary, curve))
    return out


#: One study cell's ``metric -> summary`` and ``metric -> curve`` maps.
CellSummaries = Tuple[Dict[str, MetricSummary], Dict[str, ExceedanceCurve]]


def summarize_cells(
    blocks: Mapping[str, np.ndarray],
    tails: Mapping[str, str],
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> List[CellSummaries]:
    """Per-row summaries and curves of several metrics' blocks.

    ``blocks`` maps each metric to its (rows x samples) block, all with
    the same rows; entry ``r`` of the result holds row ``r``'s maps.
    """
    cells: List[CellSummaries] = []
    for name, block in blocks.items():
        rows = summarize_block(
            name,
            block,
            tail=tails.get(name, "upper"),
            tail_level=tail_level,
            curve_points=curve_points,
        )
        if not cells:
            cells = [({}, {}) for _ in rows]
        for (summaries, curves), (summary, curve) in zip(cells, rows):
            summaries[name] = summary
            curves[name] = curve
    return cells


def summarize_metrics(
    samples: Mapping[str, np.ndarray],
    tails: Mapping[str, str],
    tail_level: float = DEFAULT_TAIL_LEVEL,
) -> Dict[str, MetricSummary]:
    """Build :class:`MetricSummary` objects for a metric->samples map."""
    return {
        name: MetricSummary.from_samples(
            name, values, tail=tails.get(name, "upper"), tail_level=tail_level
        )
        for name, values in samples.items()
    }


def conditional_value_at_risk(
    samples: np.ndarray,
    level: float = DEFAULT_TAIL_LEVEL,
    tail: str = "upper",
) -> float:
    """Mean of the worst ``1 - level`` tail of a sample.

    ``tail="upper"`` averages the samples at or above the ``level``
    quantile (risk = large values, e.g. TTM weeks); ``tail="lower"``
    averages those at or below the ``1 - level`` quantile (risk = small
    values, e.g. agility collapsing). The CVaR of
    :meth:`MetricSummary.from_samples`.
    """
    return MetricSummary.from_samples(
        "samples", samples, tail=tail, tail_level=level
    ).cvar


__all__ = [
    "DEFAULT_TAIL_LEVEL",
    "ExceedanceCurve",
    "MetricSummary",
    "PERCENTILES",
    "StudyResult",
    "TAILS",
    "conditional_value_at_risk",
    "summarize_block",
    "summarize_cells",
    "summarize_metrics",
]
