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
    sorted once along its rows and one ``np.percentile`` call covers
    every row's VaR level and band; moments are row-axis reductions.
    Per row remain the CVaR mean, over the tail samples in sample order,
    and the exceedance grid with its ``searchsorted``.

    A row's result depends on that row alone, so a coalesced study's
    cells equal the solo study's. Hence the per-row grid: ``np.linspace``
    over many rows switches every row's formula when any row is constant.
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
    upper = tail == "upper"
    var_level = 100.0 * tail_level if upper else 100.0 * (1.0 - tail_level)
    band = [float(p) for p in percentiles]
    ordered = np.sort(values, axis=1)
    quantiles = np.percentile(ordered, [var_level] + band, axis=1).T.tolist()
    means = values.mean(axis=1).tolist()
    stds = values.std(axis=1).tolist()
    minima = values.min(axis=1).tolist()
    maxima = values.max(axis=1).tolist()
    out: List[Tuple[MetricSummary, ExceedanceCurve]] = []
    for r, (var, *levels) in enumerate(quantiles):
        row, sorted_row = values[r], ordered[r]
        # In sample order: a mean over the sorted suffix differs in the
        # last bits.
        tail_values = row[row >= var] if upper else row[row <= var]
        grid = np.linspace(sorted_row[0], sorted_row[-1], curve_points)
        # P(X > t) = (count of samples strictly above t) / n.
        above = n_samples - np.searchsorted(sorted_row, grid, side="right")
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
            cvar=float(np.mean(tail_values)),
        )
        curve = ExceedanceCurve(
            name=name,
            thresholds=grid.tolist(),
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
