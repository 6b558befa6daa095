"""Monte Carlo output uncertainty under input variance.

The paper's figures carry error bars/bands: the 95% confidence interval of
the output (TTM or CAS) when the six guarded inputs vary by +-10% (pink /
light) and +-25% (green / dark). This module estimates those intervals by
plain Monte Carlo over the factor ranges, and also reports the mean of the
samples (the paper's reported point values are averages of 1024 samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..errors import InvalidParameterError
from .distributions import Factor, factor_names, sample_matrix
from .sobol import DEFAULT_SEED, Objective, evaluate_samples

#: Matches the paper's "average of 1024 samples".
DEFAULT_SAMPLES = 1024

#: Central confidence mass for the reported interval.
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class UncertaintyResult:
    """Summary statistics of the output distribution."""

    mean: float
    std: float
    lower: float
    upper: float
    confidence: float
    samples: int

    @property
    def interval_width(self) -> float:
        """Width of the confidence interval."""
        return self.upper - self.lower

    @property
    def relative_halfwidth(self) -> float:
        """Half the CI width relative to the mean (0 if mean is 0)."""
        if self.mean == 0.0:
            return 0.0
        return 0.5 * self.interval_width / abs(self.mean)


def output_uncertainty(
    function: Objective,
    factors: Sequence[Factor],
    samples: int = DEFAULT_SAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = DEFAULT_SEED,
    rng: Optional[np.random.Generator] = None,
    vectorized: bool = False,
) -> UncertaintyResult:
    """Mean and central confidence interval of ``function`` over factors.

    ``vectorized`` works as in :func:`~repro.sensitivity.sobol.sobol_indices`.
    """
    names = factor_names(factors)
    if samples < 2:
        raise InvalidParameterError(f"sample count must be >= 2, got {samples}")
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    generator = rng if rng is not None else np.random.default_rng(seed)
    matrix = sample_matrix(factors, samples, generator)
    outputs = evaluate_samples(
        function, matrix, names, vectorized, "uncertainty", "the Monte Carlo sample"
    )
    tail = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(outputs, [tail, 1.0 - tail])
    return UncertaintyResult(
        mean=float(np.mean(outputs)),
        std=float(np.std(outputs)),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
        samples=samples,
    )


def uncertainty_bands(
    function: Objective,
    factors: Sequence[Factor],
    variations: Sequence[float] = (0.10, 0.25),
    samples: int = DEFAULT_SAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = DEFAULT_SEED,
    vectorized: bool = False,
) -> Mapping[float, UncertaintyResult]:
    """One :class:`UncertaintyResult` per variation level.

    Reproduces the paired +-10% / +-25% bands of Figs. 7, 9, 11 and 12.
    """
    bands = {}
    for variation in variations:
        widened = [factor.with_variation(variation) for factor in factors]
        bands[variation] = output_uncertainty(
            function,
            widened,
            samples=samples,
            confidence=confidence,
            seed=seed,
            vectorized=vectorized,
        )
    return bands
