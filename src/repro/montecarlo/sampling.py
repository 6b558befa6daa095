"""Correlated and variance-reduced sampling for Monte Carlo studies.

The baseline studies draw independent uniforms per factor
(:func:`repro.sensitivity.distributions.sample_matrix`). Real supply
shocks are *jointly* distributed — a fab outage depresses capacity and
stretches queues at once — so this module adds, without any new
dependency:

* a **Gaussian copula** over rank (Spearman) correlations: uniforms are
  mapped to standard normals (:func:`normal_ppf`, Acklam's rational
  approximation), correlated through the Cholesky factor of the
  equivalent Pearson matrix (``rho = 2 sin(pi rho_s / 6)``), and mapped
  back through :func:`normal_cdf` (``math.erf``) — marginals stay
  exactly uniform, ranks correlate to the target;
* **Latin hypercube** stratification (one sample per 1/n stratum per
  factor, strata randomly permuted per column);
* **antithetic variates**: the second half of every draw is the literal
  mirror ``1.0 - u`` of the first half, exact by construction, so
  monotone-response estimators pair negatively correlated samples.

Everything here produces *uniform unit-interval matrices*; factor
scaling stays in :class:`~repro.sensitivity.distributions.Factor`. With
every option at its default, :func:`sample_factor_matrix` draws what
``sample_matrix`` draws, bit for bit, so it is the one sampling path of
every :class:`~repro.montecarlo.spec.SamplingSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError

#: Sampling strategies understood by :func:`sample_uniforms`.
STRATEGIES: Tuple[str, ...] = ("iid", "lhs")

_SQRT2 = math.sqrt(2.0)
_ERF = np.frompyfunc(math.erf, 1, 1)

# Acklam's inverse-normal-CDF rational approximations (relative error
# < 1.15e-9 over (0, 1)).
_PPF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_PPF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_PPF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_PPF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_PPF_SPLIT = 0.02425


def normal_ppf(u) -> np.ndarray:
    """Standard normal inverse CDF (Acklam), elementwise over ``(0, 1)``.

    The central branch is odd in ``u - 0.5`` and the tail branches
    mirror each other, so the map is antisymmetric about 0.5 to within
    one rounding of ``1 - u``.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise InvalidParameterError(
            "normal_ppf needs open-interval uniforms in (0, 1)"
        )
    a0, a1, a2, a3, a4, a5 = _PPF_A
    b0, b1, b2, b3, b4 = _PPF_B
    c0, c1, c2, c3, c4, c5 = _PPF_C
    d0, d1, d2, d3 = _PPF_D

    out = np.empty(u.shape)
    lower = u < _PPF_SPLIT
    upper = u > 1.0 - _PPF_SPLIT
    central = ~(lower | upper)

    q = u[central] - 0.5
    r = q * q
    out[central] = (
        q
        * (((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5)
        / (((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0)
    )
    q = np.sqrt(-2.0 * np.log(u[lower]))
    out[lower] = (
        ((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5
    ) / ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0)
    q = np.sqrt(-2.0 * np.log(1.0 - u[upper]))
    out[upper] = -(
        ((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5
    ) / ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0)
    return out


def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF via ``math.erf``, elementwise.

    Computed in the sign-symmetric form ``0.5 +- 0.5 erf(|z|/sqrt 2)``
    so ``cdf(-z)`` and ``cdf(z)`` are exact mirror images about 0.5.
    """
    z = np.asarray(z, dtype=float)
    t = 0.5 * _ERF(np.abs(z) / _SQRT2).astype(float)
    return np.where(z >= 0.0, 0.5 + t, 0.5 - t)


@dataclass(frozen=True, init=False)
class RankCorrelation:
    """Target Spearman rank correlations between named factors.

    ``pairs`` maps unordered factor-name pairs to rank correlations in
    ``(-1, 1)``; unlisted pairs are independent. :meth:`matrix` lays the
    pairs out over an ordered factor-name tuple and validates positive
    definiteness (via the Cholesky of the equivalent Pearson matrix).
    """

    pairs: Tuple[Tuple[Tuple[str, str], float], ...]

    def __init__(
        self,
        pairs: Mapping[Tuple[str, str], float]
        | Sequence[Tuple[Tuple[str, str], float]],
    ):
        items = (
            tuple(pairs.items())
            if isinstance(pairs, Mapping)
            else tuple(pairs)
        )
        normalized = []
        seen = set()
        for (a, b), rho in items:
            if a == b:
                raise InvalidParameterError(
                    f"rank correlation pair ({a!r}, {b!r}) must name two "
                    "distinct factors"
                )
            if not -1.0 < float(rho) < 1.0:
                raise InvalidParameterError(
                    f"rank correlation for ({a!r}, {b!r}) must be in "
                    f"(-1, 1), got {rho}"
                )
            key = (a, b) if a <= b else (b, a)
            if key in seen:
                raise InvalidParameterError(
                    f"duplicate rank correlation for pair {key!r}"
                )
            seen.add(key)
            normalized.append((key, float(rho)))
        object.__setattr__(self, "pairs", tuple(sorted(normalized)))

    def spearman_matrix(self, names: Sequence[str]) -> np.ndarray:
        """The full Spearman matrix over ``names`` (identity diagonal)."""
        names = tuple(names)
        index = {name: i for i, name in enumerate(names)}
        matrix = np.eye(len(names))
        for (a, b), rho in self.pairs:
            if a not in index or b not in index:
                raise InvalidParameterError(
                    f"rank correlation names {(a, b)!r} not in factor "
                    f"names {names}"
                )
            matrix[index[a], index[b]] = rho
            matrix[index[b], index[a]] = rho
        return matrix

    def cholesky(self, names: Sequence[str]) -> np.ndarray:
        """Cholesky factor of the equivalent Pearson matrix."""
        pearson = spearman_to_pearson(self.spearman_matrix(names))
        try:
            return np.linalg.cholesky(pearson)
        except np.linalg.LinAlgError as error:
            raise InvalidParameterError(
                "rank correlation matrix is not positive definite: "
                f"{error}"
            ) from error


def spearman_to_pearson(spearman) -> np.ndarray:
    """Pearson correlation of the Gaussian copula hitting a Spearman
    target: ``rho = 2 sin(pi rho_s / 6)`` (exact for bivariate normals).
    """
    spearman = np.asarray(spearman, dtype=float)
    pearson = 2.0 * np.sin(np.pi * spearman / 6.0)
    np.fill_diagonal(pearson.reshape(spearman.shape), 1.0)
    return pearson


def latin_hypercube(
    n_samples: int, n_factors: int, rng: np.random.Generator
) -> np.ndarray:
    """An ``(n, k)`` Latin-hypercube uniform matrix.

    Each column places exactly one sample in each of the ``n`` equal
    strata of ``(0, 1)``, at a uniform offset within its stratum, with
    an independent random stratum permutation per column.
    """
    if n_samples <= 0:
        raise InvalidParameterError(
            f"sample count must be positive, got {n_samples}"
        )
    out = np.empty((n_samples, n_factors))
    for j in range(n_factors):
        perm = rng.permutation(n_samples)
        offsets = rng.random(n_samples)
        out[:, j] = (perm + offsets) / n_samples
    return out


def mirror_uniforms(u: np.ndarray) -> np.ndarray:
    """The literal antithetic mirror ``1.0 - u`` (exact by construction)."""
    return 1.0 - np.asarray(u, dtype=float)


def sample_uniforms(
    n_samples: int,
    n_factors: int,
    rng: np.random.Generator,
    strategy: str = "iid",
    antithetic: bool = False,
) -> np.ndarray:
    """A unit-interval ``(n, k)`` matrix under the chosen strategy.

    With ``antithetic=True`` (``n_samples`` must be even) only the
    first half is drawn; the second half is its exact ``1.0 - u``
    mirror. Under LHS the mirror preserves stratification (stratum
    ``i`` maps onto stratum ``n - 1 - i``).
    """
    if strategy not in STRATEGIES:
        raise InvalidParameterError(
            f"sampling strategy must be one of {STRATEGIES}, "
            f"got {strategy!r}"
        )
    if n_samples <= 0:
        raise InvalidParameterError(
            f"sample count must be positive, got {n_samples}"
        )
    if not antithetic:
        if strategy == "lhs":
            return latin_hypercube(n_samples, n_factors, rng)
        return rng.random((n_samples, n_factors))
    if n_samples % 2:
        raise InvalidParameterError(
            "antithetic sampling pairs mirrored draws and needs an even "
            f"sample count, got {n_samples}"
        )
    half = n_samples // 2
    if strategy == "lhs":
        head = latin_hypercube(half, n_factors, rng)
    else:
        head = rng.random((half, n_factors))
    return np.concatenate([head, mirror_uniforms(head)], axis=0)


def correlate_uniforms(
    uniforms: np.ndarray, cholesky: np.ndarray
) -> np.ndarray:
    """Impose a Gaussian-copula dependence on independent uniforms.

    ``ppf -> correlate (z @ L.T) -> cdf``: marginals remain uniform,
    ranks pick up the Pearson structure of ``L @ L.T`` (hence the
    Spearman target after :func:`spearman_to_pearson`).
    """
    z = normal_ppf(uniforms)
    return normal_cdf(z @ np.asarray(cholesky, dtype=float).T)


def sample_factor_matrix(
    factors: Sequence,
    n_samples: int,
    rng: np.random.Generator,
    correlation: Optional[RankCorrelation] = None,
    strategy: str = "iid",
    antithetic: bool = False,
) -> np.ndarray:
    """Factor draws under correlation/stratification/antithetic options.

    With every option at its default this is one ``rng.random((n, k))``
    draw with each column scaled by its factor: the RNG consumption and
    the bits of :func:`~repro.sensitivity.distributions.sample_matrix`.
    """
    uniforms = sample_uniforms(
        n_samples, len(factors), rng, strategy=strategy,
        antithetic=antithetic,
    )
    if correlation is not None:
        names = tuple(factor.name for factor in factors)
        uniforms = correlate_uniforms(
            uniforms, correlation.cholesky(names)
        )
    columns = [
        factor.scale(uniforms[:, i]) for i, factor in enumerate(factors)
    ]
    return np.column_stack(columns)


def spearman_rank(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Spearman rank correlation (average-free midrank variant
    is unnecessary here: copula draws are almost surely tie-free)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    rx = np.empty(x.shape[0])
    ry = np.empty(y.shape[0])
    rx[np.argsort(x, kind="stable")] = np.arange(x.shape[0])
    ry[np.argsort(y, kind="stable")] = np.arange(y.shape[0])
    rx -= rx.mean()
    ry -= ry.mean()
    return float(
        np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry))
    )


__all__ = [
    "RankCorrelation",
    "STRATEGIES",
    "correlate_uniforms",
    "latin_hypercube",
    "mirror_uniforms",
    "normal_cdf",
    "normal_ppf",
    "sample_factor_matrix",
    "sample_uniforms",
    "spearman_rank",
    "spearman_to_pearson",
]
