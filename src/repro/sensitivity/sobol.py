"""Variance-based global sensitivity analysis (Sobol indices).

Implements the Saltelli sampling scheme with the Jansen estimators, the
standard machinery behind the paper's total-effect index S_T heatmap
(Fig. 8, citing Sobol [107]):

* two independent sample matrices ``A`` and ``B`` of size (N, k);
* k hybrid matrices ``AB_i`` (A with column i taken from B);
* first-order index  S_i  = (V - mean((f(B) - f(AB_i))^2) / 2) / V
  using the Jansen form  S_i = mean(f(B) * (f(AB_i) - f(A))) / V;
* total-effect index S_Ti = mean((f(A) - f(AB_i))^2) / (2 V).

Total cost is N * (k + 2) model evaluations. The paper reports averages
over 1024 samples for six factors, i.e. N = 128 — the default here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InvalidParameterError
from ..obs.instrument import guard_trip
from .distributions import Factor, factor_names, sample_matrix

#: Base sample count giving the paper's 1024 total evaluations at k = 6.
DEFAULT_BASE_SAMPLES = 128

#: Seed for reproducible experiment outputs.
DEFAULT_SEED = 20230617  # ISCA '23 opening day

#: A ``{factor: value} -> float`` objective, or a vectorized ``(m, k) -> (m,)`` one.
Objective = Union[
    Callable[[Mapping[str, float]], float],
    Callable[[np.ndarray], np.ndarray],
]


@dataclass(frozen=True)
class SobolResult:
    """First-order and total-effect indices for each factor.

    Indices are clipped to [0, 1] for reporting (the raw estimators can
    stray slightly outside under sampling noise); ``raw_first_order`` and
    ``raw_total_effect`` keep the unclipped values.
    """

    first_order: Mapping[str, float]
    total_effect: Mapping[str, float]
    raw_first_order: Mapping[str, float] = field(default_factory=dict)
    raw_total_effect: Mapping[str, float] = field(default_factory=dict)
    mean: float = 0.0
    variance: float = 0.0
    evaluations: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "first_order", dict(self.first_order))
        object.__setattr__(self, "total_effect", dict(self.total_effect))
        object.__setattr__(self, "raw_first_order", dict(self.raw_first_order))
        object.__setattr__(self, "raw_total_effect", dict(self.raw_total_effect))

    @property
    def dominant_factor(self) -> str:
        """The factor with the largest total-effect index."""
        return max(self.total_effect.items(), key=lambda item: item[1])[0]

    def ranked_total_effects(self) -> Sequence:
        """(name, S_T) pairs sorted by decreasing influence."""
        return sorted(
            self.total_effect.items(), key=lambda item: item[1], reverse=True
        )


def evaluate_samples(
    function: Objective,
    matrix: np.ndarray,
    names: Tuple[str, ...],
    vectorized: bool,
    guard: str,
    label: str,
) -> np.ndarray:
    """Evaluate ``function`` on every row of ``matrix`` (at once if vectorized).

    NaN/inf outputs are rejected, naming the offending factor row, and
    counted as trips of ``guard``: NaN propagates silently through the
    estimators and produces indices or bands that *look* like results.
    """
    if vectorized:
        outputs = np.asarray(function(matrix), dtype=float)
        if outputs.shape != (matrix.shape[0],):
            raise InvalidParameterError(
                f"vectorized objective must return shape "
                f"({matrix.shape[0]},), got {outputs.shape}"
            )
    else:
        outputs = np.array(
            [function(dict(zip(names, row))) for row in matrix], dtype=float
        )
    finite = np.isfinite(outputs)
    if not np.all(finite):
        guard_trip(guard)
        row = int(np.argmin(finite))
        values = dict(zip(names, (float(v) for v in matrix[row])))
        raise InvalidParameterError(
            f"model returned non-finite output {outputs[row]!r} for "
            f"sample row {row} of {label}: {values}"
        )
    return outputs


def sobol_indices(
    function: Objective,
    factors: Sequence[Factor],
    base_samples: int = DEFAULT_BASE_SAMPLES,
    seed: int = DEFAULT_SEED,
    rng: Optional[np.random.Generator] = None,
    vectorized: bool = False,
) -> SobolResult:
    """Estimate Sobol indices of ``function`` over the factor ranges.

    Parameters
    ----------
    function:
        Maps a ``{factor name: value}`` dict to a scalar output (e.g. the
        TTM of a design with six perturbed inputs). With
        ``vectorized=True``, maps an ``(m, k)`` sample matrix (columns in
        factor order) to an ``(m,)`` output array instead, so each
        Saltelli matrix is evaluated in one shot --
        :func:`repro.engine.ttm_factor_batch_function` provides the fast
        TTM objective, :func:`repro.engine.rowwise_batch_function` lifts
        any scalar objective.
    factors:
        The uncertain inputs with their uniform ranges.
    base_samples:
        N in the Saltelli scheme; total evaluations are N * (k + 2).
    seed / rng:
        Reproducibility controls; pass an explicit generator to chain
        analyses. The sample stream is identical for both calling
        conventions, so scalar and vectorized runs of the same objective
        agree to round-off.
    vectorized:
        Treat ``function`` as the array-in/array-out fast path.
    """
    names = factor_names(factors)
    if base_samples < 2:
        raise InvalidParameterError(
            f"base sample count must be >= 2, got {base_samples}"
        )
    generator = rng if rng is not None else np.random.default_rng(seed)
    matrix_a = sample_matrix(factors, base_samples, generator)
    matrix_b = sample_matrix(factors, base_samples, generator)

    y_a = evaluate_samples(function, matrix_a, names, vectorized, "sobol", "matrix A")
    y_b = evaluate_samples(function, matrix_b, names, vectorized, "sobol", "matrix B")
    evaluations = 2 * base_samples

    combined = np.concatenate([y_a, y_b])
    variance = float(np.var(combined))
    mean = float(np.mean(combined))

    raw_first: Dict[str, float] = {}
    raw_total: Dict[str, float] = {}
    for i, name in enumerate(names):
        matrix_ab = matrix_a.copy()
        matrix_ab[:, i] = matrix_b[:, i]
        y_ab = evaluate_samples(
            function, matrix_ab, names, vectorized, "sobol", f"matrix AB[{name}]"
        )
        evaluations += base_samples
        if variance == 0.0:
            raw_first[name] = 0.0
            raw_total[name] = 0.0
            continue
        # Jansen estimators (Saltelli et al. 2010, Table 2).
        raw_first[name] = float(
            (variance - 0.5 * np.mean((y_b - y_ab) ** 2)) / variance
        )
        raw_total[name] = float(0.5 * np.mean((y_a - y_ab) ** 2) / variance)

    clip = lambda value: float(min(max(value, 0.0), 1.0))  # noqa: E731
    return SobolResult(
        first_order={name: clip(value) for name, value in raw_first.items()},
        total_effect={name: clip(value) for name, value in raw_total.items()},
        raw_first_order=raw_first,
        raw_total_effect=raw_total,
        mean=mean,
        variance=variance,
        evaluations=evaluations,
    )
