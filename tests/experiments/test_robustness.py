"""Tests for the calibration-robustness extension.

``robustness.run`` scores every perturbed world as rows of one compiled
table; :func:`scalar_survival` is the per-world scalar loop it replaced,
kept here as the oracle. Each world's noise is one array draw;
:func:`scalar_draw_database` is the one-draw-per-field loop it replaced,
kept as the oracle of the worlds.
"""

import numpy as np
import pytest

from repro.agility.cas import chip_agility_score
from repro.design.library.a11 import a11
from repro.design.library.zen2 import zen2
from repro.errors import InvalidParameterError
from repro.experiments import robustness
from repro.market.foundry import Foundry
from repro.ttm.model import TTMModel


def scalar_draw_database(base, rng, noise):
    """One scalar draw per (node, field), node-major."""
    overrides = {}
    for node in base.nodes:
        fields = {}
        for name in robustness.PERTURBED_FIELDS:
            factor = 1.0 + rng.uniform(-noise, noise)
            fields[name] = getattr(node, name) * factor
        overrides[node.name] = fields
    return base.override(overrides)


def scalar_survival(model, samples, noise, seed, n_chips=10e6):
    """Each world through the scalar model, one design at a time."""
    base = model.foundry.technology
    rng = np.random.default_rng(seed)
    hits = {
        "A11 optimum stays in the mature pocket": 0,
        "180nm beats 130nm and 90nm": 0,
        "mixed Zen 2 beats all-7nm chiplet": 0,
        "A11 more agile at 7nm than 5nm": 0,
    }
    for _ in range(samples):
        technology = scalar_draw_database(base, rng, noise)
        world = TTMModel(foundry=Foundry.nominal(technology))
        ttm = {
            process: world.total_weeks(a11(process), n_chips)
            for process in robustness._A11_NODES
        }
        fastest = min(ttm, key=ttm.get)
        if fastest in robustness.MATURE_POCKET:
            hits["A11 optimum stays in the mature pocket"] += 1
        if ttm["180nm"] < ttm["130nm"] and ttm["180nm"] < ttm["90nm"]:
            hits["180nm beats 130nm and 90nm"] += 1
        mixed = world.total_weeks(zen2(), 25e6)
        single = world.total_weeks(zen2("7nm", "7nm"), 25e6)
        if mixed < single:
            hits["mixed Zen 2 beats all-7nm chiplet"] += 1
        cas_7 = chip_agility_score(world, a11("7nm"), n_chips).cas
        cas_5 = chip_agility_score(world, a11("5nm"), n_chips).cas
        if cas_7 > cas_5:
            hits["A11 more agile at 7nm than 5nm"] += 1
    return {finding: count / samples for finding, count in hits.items()}


@pytest.fixture(scope="module")
def result(model):
    return robustness.run(model, samples=24)


class TestRobustness:
    def test_all_findings_tracked(self, result):
        assert set(result.survival) == {
            "A11 optimum stays in the mature pocket",
            "180nm beats 130nm and 90nm",
            "mixed Zen 2 beats all-7nm chiplet",
            "A11 more agile at 7nm than 5nm",
        }

    def test_fractions_are_probabilities(self, result):
        for fraction in result.survival.values():
            assert 0.0 <= fraction <= 1.0

    def test_structural_findings_are_robust(self, result):
        """The pocket, the mixed-process win and the CAS ordering are
        driven by order-of-magnitude structure, not by fine calibration:
        they must survive the overwhelming majority of perturbations."""
        assert result.survival["A11 optimum stays in the mature pocket"] > 0.9
        assert result.survival["mixed Zen 2 beats all-7nm chiplet"] > 0.8
        assert result.survival["A11 more agile at 7nm than 5nm"] > 0.9

    def test_legacy_ordering_is_the_fragile_one(self, result):
        """180 nm's few-week margin over 130/90 nm is the finding most
        exposed to calibration error — and still holds in most worlds."""
        fragile = result.survival["180nm beats 130nm and 90nm"]
        assert fragile == min(result.survival.values())
        assert fragile > 0.3

    def test_reproducible_by_seed(self, model):
        first = robustness.run(model, samples=8, seed=7)
        second = robustness.run(model, samples=8, seed=7)
        assert first.survival == second.survival

    def test_zero_noise_preserves_everything(self, model):
        clean = robustness.run(model, samples=4, noise=1e-6)
        assert all(value == 1.0 for value in clean.survival.values())

    def test_validation(self, model):
        with pytest.raises(InvalidParameterError):
            robustness.run(model, samples=0)
        with pytest.raises(InvalidParameterError):
            robustness.run(model, noise=1.5)

    def test_table_renders(self, result):
        assert "survives" in result.table()


class TestWorldDraws:
    @pytest.mark.parametrize("seed", [1, 7, robustness.DEFAULT_SEED])
    @pytest.mark.parametrize("noise", [1e-6, 0.05, 0.2, 0.7])
    def test_equal_the_scalar_draw_loop(self, db, seed, noise):
        # Successive worlds from one generator: each world's draw must
        # also leave the stream where the scalar loop leaves it.
        drawn = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        for _ in range(4):
            world = robustness._perturbed_database(db, drawn, noise)
            oracle = scalar_draw_database(db, scalar, noise)
            assert world.names == oracle.names
            for name in oracle.names:
                assert world[name] == oracle[name]
                for field in robustness.PERTURBED_FIELDS:
                    assert type(getattr(world[name], field)) is float


class TestScalarOracle:
    def test_default_run_matches_the_documented_fractions(self):
        # EXPERIMENTS.md: 100 %, 29 of 48 (60 %), 100 %, 100 %.
        result = robustness.run()
        assert result.survival == {
            "A11 optimum stays in the mature pocket": 1.0,
            "180nm beats 130nm and 90nm": 29 / 48,
            "mixed Zen 2 beats all-7nm chiplet": 1.0,
            "A11 more agile at 7nm than 5nm": 1.0,
        }
        assert result.survival == scalar_survival(
            TTMModel.nominal(),
            robustness.DEFAULT_SAMPLES,
            robustness.DEFAULT_NOISE,
            robustness.DEFAULT_SEED,
        )

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    @pytest.mark.parametrize(
        "noise, samples", [(0.05, 3), (0.2, 11), (0.45, 16), (0.7, 5)]
    )
    def test_equals_the_per_world_scalar_loop(
        self, model, seed, noise, samples
    ):
        assert robustness.run(
            model, samples=samples, noise=noise, seed=seed
        ).survival == scalar_survival(model, samples, noise, seed)

    def test_volume_reaches_the_a11_rows(self, model):
        assert robustness.run(
            model, samples=6, seed=3, n_chips=1e5
        ).survival == scalar_survival(model, 6, 0.2, 3, n_chips=1e5)
