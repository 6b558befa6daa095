"""Vectorized Sobol path: equivalence, reproducibility, finite guard."""

import numpy as np
import pytest

from repro.design.library.a11 import (
    A11_TOTAL_TRANSISTORS,
    A11_UNIQUE_TRANSISTORS,
)
from repro.engine.sobol_adapter import (
    rowwise_batch_function,
    ttm_factor_batch_function,
)
from repro.errors import InvalidParameterError
from repro.experiments import fig07_a11_ttm_cost
from repro.sensitivity.distributions import (
    DEFAULT_VARIATION,
    WIDE_VARIATION,
    Factor,
)
from repro.sensitivity.sobol import sobol_indices
from repro.sensitivity.ttm_factors import (
    FACTOR_NAMES,
    ttm_factor_function,
    ttm_factors,
)

N_CHIPS = fig07_a11_ttm_cost.DEFAULT_N_CHIPS


def a11_factors(process: str, variation: float = DEFAULT_VARIATION):
    return ttm_factors(
        process,
        A11_TOTAL_TRANSISTORS,
        A11_UNIQUE_TRANSISTORS,
        variation=variation,
    )


#: Fig. 7's nodes at both band widths; the +-10 % cases keep the bare
#: node as their id.
FIG7_BANDS = [
    pytest.param(process, variation, id=process + suffix)
    for process in fig07_a11_ttm_cost.DEFAULT_PROCESSES
    for variation, suffix in ((DEFAULT_VARIATION, ""), (WIDE_VARIATION, "-wide"))
]


class TestAdapterEquivalence:
    @pytest.mark.parametrize(("process", "variation"), FIG7_BANDS)
    def test_matches_scalar_objective(self, process, variation):
        scalar = ttm_factor_function(process, N_CHIPS)
        batched = ttm_factor_batch_function(process, N_CHIPS)
        factors = a11_factors(process, variation)
        rng = np.random.default_rng(7)
        lows = np.array([f.low for f in factors])
        highs = np.array([f.high for f in factors])
        matrix = rng.uniform(lows, highs, size=(64, len(factors)))
        expected = [
            scalar(dict(zip(FACTOR_NAMES, row))) for row in matrix
        ]
        np.testing.assert_allclose(batched(matrix), expected, rtol=1e-9)

    def test_rejects_wrong_width(self):
        batched = ttm_factor_batch_function("7nm", N_CHIPS)
        with pytest.raises(InvalidParameterError, match="factor matrix"):
            batched(np.ones((4, 3)))

    def test_rowwise_lift_matches_scalar(self):
        scalar = ttm_factor_function("7nm", N_CHIPS)
        lifted = rowwise_batch_function(scalar, FACTOR_NAMES)
        factors = a11_factors("7nm")
        matrix = np.array(
            [[(f.low + f.high) / 2.0 for f in factors]] * 3
        )
        expected = scalar(dict(zip(FACTOR_NAMES, matrix[0])))
        np.testing.assert_allclose(lifted(matrix), [expected] * 3)


class TestVectorizedIndices:
    @pytest.mark.parametrize("process", ("28nm", "5nm"))
    def test_matches_scalar_path(self, process):
        factors = a11_factors(process)
        scalar = sobol_indices(
            ttm_factor_function(process, N_CHIPS), factors, base_samples=64
        )
        vectorized = sobol_indices(
            ttm_factor_batch_function(process, N_CHIPS),
            factors,
            base_samples=64,
            vectorized=True,
        )
        assert vectorized.evaluations == scalar.evaluations
        for name in FACTOR_NAMES:
            assert vectorized.total_effect[name] == pytest.approx(
                scalar.total_effect[name], rel=1e-9, abs=1e-12
            )
            assert vectorized.first_order[name] == pytest.approx(
                scalar.first_order[name], rel=1e-9, abs=1e-12
            )

    def test_seed_reproducibility(self):
        factors = a11_factors("7nm")
        function = ttm_factor_batch_function("7nm", N_CHIPS)
        first = sobol_indices(
            function, factors, base_samples=32, seed=123, vectorized=True
        )
        again = sobol_indices(
            function, factors, base_samples=32, seed=123, vectorized=True
        )
        other = sobol_indices(
            function, factors, base_samples=32, seed=124, vectorized=True
        )
        assert first.raw_total_effect == again.raw_total_effect
        assert first.raw_total_effect != other.raw_total_effect

    def test_shape_mismatch_is_rejected(self):
        factors = a11_factors("7nm")
        with pytest.raises(InvalidParameterError, match="shape"):
            sobol_indices(
                lambda matrix: np.ones((matrix.shape[0], 2)),
                factors,
                base_samples=8,
                vectorized=True,
            )


class TestFiniteGuard:
    def test_nan_output_names_the_row(self):
        factors = (
            Factor("x", 1.0, 0.5),
            Factor("y", 1.0, 0.5),
        )

        def poisoned(values):
            return float("nan") if values["x"] > 1.0 else 1.0

        with pytest.raises(InvalidParameterError) as excinfo:
            sobol_indices(poisoned, factors, base_samples=16)
        message = str(excinfo.value)
        assert "non-finite" in message
        assert "'x'" in message

    def test_inf_output_vectorized(self):
        factors = (Factor("x", 1.0, 0.5),)

        def diverging(matrix):
            column = matrix[:, 0]
            return np.where(column > 1.0, np.inf, column)

        with pytest.raises(InvalidParameterError, match="non-finite"):
            sobol_indices(
                diverging, factors, base_samples=16, vectorized=True
            )
