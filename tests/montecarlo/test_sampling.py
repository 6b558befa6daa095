"""Correlated / variance-reduced sampling contracts.

Four pins: the Gaussian copula hits its Spearman target (within
finite-sample tolerance) while marginals stay uniform; antithetic halves
are *literal* mirrors (``1.0 - u``, exact); Latin-hypercube columns put
exactly one sample per stratum; and specs with every sampling option at
its default keep the legacy draw path bit-for-bit (same RNG consumption,
same matrices), so existing studies cannot shift.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.montecarlo.sampling import (
    RankCorrelation,
    correlate_uniforms,
    latin_hypercube,
    mirror_uniforms,
    normal_cdf,
    normal_ppf,
    sample_uniforms,
    spearman_rank,
    spearman_to_pearson,
)
from repro.montecarlo.spec import (
    SamplingSpec,
    default_correlated_spec,
    default_supply_spec,
)
from repro.sensitivity.distributions import sample_matrix


class TestNormalMaps:
    def test_ppf_cdf_round_trip(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 10001)
        back = normal_cdf(normal_ppf(u))
        assert np.max(np.abs(back - u)) < 1e-8

    def test_ppf_antisymmetry(self):
        u = np.linspace(1e-6, 0.5, 1001)[:-1]
        assert np.max(np.abs(normal_ppf(u) + normal_ppf(1.0 - u))) < 1e-8

    def test_ppf_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidParameterError):
                normal_ppf([0.5, bad])

    def test_known_quantiles(self):
        assert abs(float(normal_ppf(np.asarray(0.975))) - 1.959964) < 1e-4
        assert abs(float(normal_ppf(np.asarray(0.5)))) < 1e-12


class TestCopula:
    def test_rank_correlation_hits_target(self):
        rng = np.random.default_rng(11)
        target = RankCorrelation({("a", "b"): 0.7, ("b", "c"): -0.5})
        u = rng.random((20000, 3))
        v = correlate_uniforms(u, target.cholesky(("a", "b", "c")))
        assert abs(spearman_rank(v[:, 0], v[:, 1]) - 0.7) < 0.03
        assert abs(spearman_rank(v[:, 1], v[:, 2]) + 0.5) < 0.03
        # Unlisted pair stays (nearly) independent.
        assert abs(spearman_rank(v[:, 0], v[:, 2])) < 0.03

    def test_marginals_stay_uniform(self):
        rng = np.random.default_rng(5)
        target = RankCorrelation({("a", "b"): 0.8})
        v = correlate_uniforms(
            rng.random((20000, 2)), target.cholesky(("a", "b"))
        )
        for j in range(2):
            hist, _ = np.histogram(v[:, j], bins=20, range=(0.0, 1.0))
            assert hist.min() > 0.8 * 1000 and hist.max() < 1.2 * 1000

    def test_spearman_to_pearson_fixed_points(self):
        matrix = spearman_to_pearson(
            np.asarray([[1.0, 0.0], [0.0, 1.0]])
        )
        assert np.array_equal(matrix, np.eye(2))
        near_one = spearman_to_pearson(
            np.asarray([[1.0, 0.99999], [0.99999, 1.0]])
        )[0, 1]
        assert near_one > 0.9999

    @pytest.mark.parametrize(
        "pairs",
        [
            {("a", "a"): 0.5},
            {("a", "b"): 1.0},
            {("a", "b"): -1.5},
        ],
    )
    def test_invalid_pairs(self, pairs):
        with pytest.raises(InvalidParameterError):
            RankCorrelation(pairs)

    def test_duplicate_unordered_pair(self):
        with pytest.raises(InvalidParameterError):
            RankCorrelation([((u"a", "b"), 0.5), (("b", "a"), 0.2)])

    def test_not_positive_definite(self):
        bad = RankCorrelation(
            {("a", "b"): 0.95, ("b", "c"): 0.95, ("a", "c"): -0.95}
        )
        with pytest.raises(InvalidParameterError):
            bad.cholesky(("a", "b", "c"))

    def test_unknown_names(self):
        target = RankCorrelation({("a", "zz"): 0.5})
        with pytest.raises(InvalidParameterError):
            target.cholesky(("a", "b"))


class TestAntithetic:
    def test_halves_mirror_exactly(self):
        rng = np.random.default_rng(3)
        u = sample_uniforms(256, 4, rng, antithetic=True)
        head, tail = u[:128], u[128:]
        assert np.array_equal(tail, 1.0 - head)

    def test_lhs_mirror_preserves_stratification(self):
        # The head is a 32-sample LHS; its mirror maps stratum i onto
        # stratum 31-i, so the full 64 draws hit every 1/32 stratum
        # exactly twice.
        rng = np.random.default_rng(3)
        u = sample_uniforms(64, 2, rng, strategy="lhs", antithetic=True)
        for j in range(2):
            strata = np.floor(u[:, j] * 32).astype(int)
            assert sorted(strata) == sorted(list(range(32)) * 2)

    def test_odd_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            sample_uniforms(7, 2, rng, antithetic=True)

    def test_mirror_is_literal(self):
        u = np.asarray([[0.25, 0.75]])
        assert np.array_equal(mirror_uniforms(u), [[0.75, 0.25]])


class TestLatinHypercube:
    def test_one_sample_per_stratum(self):
        rng = np.random.default_rng(9)
        u = latin_hypercube(100, 3, rng)
        for j in range(3):
            strata = np.floor(u[:, j] * 100).astype(int)
            assert sorted(strata) == list(range(100))

    def test_bad_count(self):
        with pytest.raises(InvalidParameterError):
            latin_hypercube(0, 2, np.random.default_rng(0))

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            sample_uniforms(8, 2, np.random.default_rng(0), strategy="sobol")


class TestSpecIntegration:
    def test_default_spec_draws_bit_unchanged(self):
        """With every sampling option at its default, the one sampling
        path draws exactly what independent uniforms scaled per column
        (``sample_matrix``) draw: same RNG use, same bits."""
        spec = default_supply_spec(1e7)
        for n_samples in (1, 7, 64, 2048):
            draws = spec.sample(n_samples, np.random.default_rng(42)).matrix
            independent = sample_matrix(
                [p.factor for p in spec.parameters],
                n_samples,
                np.random.default_rng(42),
            )
            assert np.array_equal(draws, independent)

    def test_correlated_spec_moves_joint_ranks(self):
        spec = default_correlated_spec(1e7)
        samples = spec.sample(4096, np.random.default_rng(1))
        names = list(spec.factor_names)
        matrix = samples.matrix
        cap = matrix[:, names.index("capacity")]
        queue = matrix[:, names.index("queue_weeks")]
        assert spearman_rank(cap, queue) < -0.4

    def test_correlated_spec_antithetic_default(self):
        spec = default_correlated_spec(1e7)
        assert spec.antithetic and spec.strategy == "lhs"
        with pytest.raises(InvalidParameterError):
            spec.sample(33, np.random.default_rng(0))

    def test_spec_validates_correlation_upfront(self):
        base = default_supply_spec(1e7)
        with pytest.raises(InvalidParameterError):
            SamplingSpec(
                parameters=base.parameters,
                n_chips=base.n_chips,
                correlation=RankCorrelation({("capacity", "nope"): 0.5}),
            )

    def test_spec_rejects_unknown_strategy(self):
        base = default_supply_spec(1e7)
        with pytest.raises(InvalidParameterError):
            SamplingSpec(
                parameters=base.parameters,
                n_chips=base.n_chips,
                strategy="quasi",
            )
