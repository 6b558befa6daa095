"""Tests for the top-level TTM model (Eq. 1) and its paper findings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.design.library.a11 import a11
from repro.design.library.generic import monolithic_design
from repro.design.library.zen2 import zen2
from repro.errors import InvalidParameterError
from repro.technology.yield_model import negative_binomial_yield, poisson_yield
from repro.ttm.model import TTMModel


class TestStructure:
    def test_total_is_sum_of_phases(self, model):
        result = model.time_to_market(a11("28nm"), 1e7)
        assert result.total_weeks == pytest.approx(
            result.design_weeks
            + result.tapeout_weeks
            + result.fabrication_weeks
            + result.packaging_weeks
        )

    def test_single_die_pipelined_equals_sequential(self, foundry):
        design = monolithic_design("chip", "7nm", ntt=4e9, nut=5e8)
        pipelined = TTMModel(foundry=foundry, schedule="pipelined")
        sequential = TTMModel(foundry=foundry, schedule="sequential")
        assert pipelined.total_weeks(design, 1e7) == pytest.approx(
            sequential.total_weeks(design, 1e7)
        )

    def test_pipelined_never_slower_than_sequential(self, foundry):
        design = zen2()
        pipelined = TTMModel(foundry=foundry, schedule="pipelined")
        sequential = TTMModel(foundry=foundry, schedule="sequential")
        assert pipelined.total_weeks(design, 1e7) <= sequential.total_weeks(
            design, 1e7
        )

    def test_design_weeks_passed_through(self, model):
        design = monolithic_design("chip", "7nm", ntt=4e9, nut=5e8)
        with_design = design.__class__(
            name="chip", dies=design.dies, design_weeks=10.0
        )
        base = model.total_weeks(design, 1e6)
        assert model.total_weeks(with_design, 1e6) == pytest.approx(base + 10.0)

    def test_per_node_schedules_exposed(self, model):
        result = model.time_to_market(zen2(), 1e7)
        assert set(result.nodes) == {"7nm", "14nm"}
        assert result.bottleneck_process == "7nm"

    def test_wafer_demand_matches_result(self, model):
        design = a11("28nm")
        result = model.time_to_market(design, 1e7)
        demand = model.wafer_demand(design, 1e7)
        assert result.total_wafers == pytest.approx(sum(demand.values()))


class TestPaperFindings:
    """Orderings the paper reports for the A11 study (Sec. 6.2)."""

    @pytest.fixture(scope="class")
    def ttm_10m(self, model):
        nodes = (
            "250nm", "180nm", "130nm", "90nm", "65nm",
            "40nm", "28nm", "14nm", "7nm", "5nm",
        )
        return {p: model.total_weeks(a11(p), 10e6) for p in nodes}

    def test_28nm_is_fastest_for_10m_chips(self, ttm_10m):
        assert min(ttm_10m, key=ttm_10m.get) == "28nm"

    def test_250nm_is_catastrophic(self, ttm_10m):
        assert ttm_10m["250nm"] > 2 * ttm_10m["180nm"]

    def test_180nm_beats_130_and_90(self, ttm_10m):
        """Higher wafer rate wins despite lower density (Fig. 10)."""
        assert ttm_10m["180nm"] < ttm_10m["130nm"] < ttm_10m["90nm"]

    def test_advanced_nodes_get_slower_toward_5nm(self, ttm_10m):
        assert ttm_10m["14nm"] < ttm_10m["7nm"] < ttm_10m["5nm"]

    def test_headline_band(self, ttm_10m):
        """Re-release on legacy vs advanced: paper quotes +73%..+116%."""
        best = min(ttm_10m.values())
        gain_7nm = ttm_10m["7nm"] / best - 1.0
        gain_5nm = ttm_10m["5nm"] / best - 1.0
        assert 0.4 < gain_7nm < 1.0
        assert 0.8 < gain_5nm < 1.5
        assert gain_5nm > gain_7nm

    def test_small_runs_favor_legacy(self, model):
        """Fig. 10's 1K row: legacy nodes win tiny productions."""
        legacy = model.total_weeks(a11("180nm"), 1e3)
        advanced = model.total_weeks(a11("5nm"), 1e3)
        assert legacy < advanced

    def test_mixed_zen2_faster_than_all_7nm(self, model):
        """Sec. 6.5: the original Zen 2 beats the all-7nm chiplet design."""
        mixed = model.total_weeks(zen2(), 50e6)
        all_7nm = model.total_weeks(zen2("7nm", "7nm"), 50e6)
        assert mixed < all_7nm


class TestBehaviour:
    def test_ttm_monotone_in_volume(self, model):
        design = a11("28nm")
        volumes = [1e3, 1e5, 1e7, 1e8]
        results = [model.total_weeks(design, n) for n in volumes]
        assert results == sorted(results)

    @settings(max_examples=25, deadline=None)
    @given(fraction=st.floats(min_value=0.05, max_value=1.0))
    def test_capacity_loss_never_speeds_things_up(self, model, fraction):
        design = a11("28nm")
        full = model.total_weeks(design, 1e7)
        reduced = model.at_capacity(fraction).total_weeks(design, 1e7)
        assert reduced >= full - 1e-9

    def test_invalid_volume_rejected(self, model):
        with pytest.raises(InvalidParameterError):
            model.total_weeks(a11("28nm"), 0.0)

    def test_invalid_schedule_rejected(self, foundry):
        with pytest.raises(InvalidParameterError):
            TTMModel(foundry=foundry, schedule="magic")

    def test_invalid_team_rejected(self, foundry):
        with pytest.raises(InvalidParameterError):
            TTMModel(foundry=foundry, engineers=0)

    def test_block_parallel_option_reduces_tapeout(self, foundry):
        serial = TTMModel(foundry=foundry)
        parallel = TTMModel(foundry=foundry, block_parallel=True)
        design = a11("5nm")
        assert (
            parallel.time_to_market(design, 1e6).tapeout_weeks
            < serial.time_to_market(design, 1e6).tapeout_weeks
        )

    def test_edge_corrected_needs_more_time(self, foundry):
        plain = TTMModel(foundry=foundry)
        corrected = TTMModel(foundry=foundry, edge_corrected=True)
        design = a11("28nm")
        assert corrected.total_weeks(design, 1e7) > plain.total_weeks(
            design, 1e7
        )


class TestModelingChoices:
    """Each toggles one modeling choice (DESIGN.md E10) and pins the
    direction of its effect."""

    def test_clustered_yield_worth_wafers_on_a_big_die(self, model):
        node = model.foundry.technology["250nm"]
        area = a11("250nm").dies[0].area_on(node)
        clustered = negative_binomial_yield(
            area, node.defect_density_per_cm2
        )
        poisson = poisson_yield(area, node.defect_density_per_cm2)
        assert (clustered - poisson) / poisson > 0.05

    def test_pipelined_beats_sequential_for_chiplets(self, foundry):
        pipelined = TTMModel(foundry=foundry, schedule="pipelined")
        sequential = TTMModel(foundry=foundry, schedule="sequential")
        assert pipelined.total_weeks(zen2(), 1e7) < sequential.total_weeks(
            zen2(), 1e7
        )

    def test_more_clustering_needs_fewer_wafers(self, foundry):
        # alpha = 1 clusters defects most, so fewer dies are lost.
        clustered = TTMModel(foundry=foundry, alpha=1.0)
        spread = TTMModel(foundry=foundry, alpha=10.0)
        design = a11("28nm")
        assert sum(clustered.wafer_demand(design, 1e7).values()) < sum(
            spread.wafer_demand(design, 1e7).values()
        )
