"""Tests for Monte Carlo uncertainty bands."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.obs.instrument import GUARD_TRIPS
from repro.sensitivity.distributions import Factor
from repro.sensitivity.uncertainty import output_uncertainty, uncertainty_bands


class TestOutputUncertainty:
    def test_identity_recovers_uniform_statistics(self):
        factors = [Factor("x", 100.0, 0.10)]
        result = output_uncertainty(lambda v: v["x"], factors, samples=4096)
        assert result.mean == pytest.approx(100.0, rel=0.01)
        # 95% central interval of U(90, 110) is [90.5, 109.5].
        assert result.lower == pytest.approx(90.5, abs=0.5)
        assert result.upper == pytest.approx(109.5, abs=0.5)

    def test_interval_contains_mean(self):
        factors = [Factor("x", 10.0, 0.25)]
        result = output_uncertainty(lambda v: v["x"] ** 2, factors)
        assert result.lower <= result.mean <= result.upper

    def test_constant_function_zero_width(self):
        factors = [Factor("x", 10.0, 0.25)]
        result = output_uncertainty(lambda v: 7.0, factors)
        assert result.interval_width == pytest.approx(0.0)
        assert result.relative_halfwidth == pytest.approx(0.0)

    def test_reproducible_by_seed(self):
        factors = [Factor("x", 10.0, 0.1)]
        a = output_uncertainty(lambda v: v["x"], factors, seed=5)
        b = output_uncertainty(lambda v: v["x"], factors, seed=5)
        assert a == b

    def test_vectorized_matches_scalar(self):
        """Both calling conventions see the same sample matrix."""
        factors = [Factor("x", 10.0, 0.1), Factor("y", 3.0, 0.25)]
        scalar = output_uncertainty(lambda v: v["x"] / v["y"], factors)
        batched = output_uncertainty(
            lambda matrix: matrix[:, 0] / matrix[:, 1],
            factors,
            vectorized=True,
        )
        assert batched == scalar

    def test_validation(self):
        factors = [Factor("x", 10.0, 0.1)]
        with pytest.raises(InvalidParameterError):
            output_uncertainty(lambda v: 0.0, factors, samples=1)
        with pytest.raises(InvalidParameterError):
            output_uncertainty(lambda v: 0.0, factors, confidence=1.0)


class TestBands:
    def test_wider_variation_wider_interval(self):
        factors = [Factor("x", 100.0, 0.10)]
        bands = uncertainty_bands(lambda v: v["x"], factors)
        assert set(bands) == {0.10, 0.25}
        assert bands[0.25].interval_width > bands[0.10].interval_width

    def test_bands_share_the_nominal_center(self):
        factors = [Factor("x", 100.0, 0.10)]
        bands = uncertainty_bands(lambda v: v["x"], factors, samples=4096)
        assert bands[0.10].mean == pytest.approx(bands[0.25].mean, rel=0.02)


class TestFiniteGuard:
    def test_scalar_nan_names_the_row(self):
        factors = [Factor("x", 1.0, 0.5), Factor("y", 1.0, 0.5)]
        before = GUARD_TRIPS.value(guard="uncertainty")

        def poisoned(values):
            return float("nan") if values["x"] > 1.0 else 1.0

        with pytest.raises(InvalidParameterError) as excinfo:
            output_uncertainty(poisoned, factors, samples=64)
        message = str(excinfo.value)
        assert "non-finite" in message and "sample row" in message
        assert "'x'" in message
        assert GUARD_TRIPS.value(guard="uncertainty") == before + 1

    def test_vectorized_inf_is_rejected(self):
        factors = [Factor("x", 1.0, 0.5)]

        def diverging(matrix):
            column = matrix[:, 0]
            return np.where(column > 1.0, np.inf, column)

        with pytest.raises(InvalidParameterError, match="non-finite"):
            uncertainty_bands(diverging, factors, samples=64, vectorized=True)

    def test_vectorized_wrong_shape_is_rejected(self):
        factors = [Factor("x", 1.0, 0.5)]
        with pytest.raises(InvalidParameterError, match="shape"):
            output_uncertainty(
                lambda matrix: np.ones((matrix.shape[0], 2)),
                factors,
                samples=8,
                vectorized=True,
            )
