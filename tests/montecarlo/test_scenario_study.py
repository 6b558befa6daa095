"""Scenario-study executor and chunking contracts.

The cube is a pure function of (spec, seed, scenarios): serial, thread,
and process executors — and any chunk size — must produce bit-identical
summaries. CVaR is pinned against a hand-computed tail mean, and the
CLI-facing tables must carry every scenario row. The full 29-scenario
study does a fixed, host-independent amount of fused work.
"""

import numpy as np
import pytest

import repro.montecarlo.results as results_module
import repro.montecarlo.scenario_study as scenario_study_module
from repro.design.library.a11 import a11
from repro.design.library.zen2 import zen2, zen2_monolithic
from repro.errors import InvalidParameterError
from repro.montecarlo.scenario_study import (
    DEFAULT_CHUNK_SCENARIOS,
    conditional_value_at_risk,
    run_scenario_study,
)
from repro.montecarlo.spec import default_supply_spec
from repro.montecarlo.stress import stress_scenarios
from repro.sensitivity.distributions import Factor
from repro.montecarlo.spec import SampledParameter, SamplingSpec

N_SAMPLES = 48
SEED = 1234


@pytest.fixture
def designs():
    return (a11("7nm"), zen2())


@pytest.fixture
def spec():
    return default_supply_spec(1.5e7)


@pytest.fixture
def scenario_set():
    return stress_scenarios(
        ["baseline", "fab-outage:severe", "logistics:mild",
         "demand-whiplash:moderate", "defect-excursion:extreme"]
    )


def study_fingerprint(study):
    """Every float a study exposes, for exact cross-executor equality."""
    out = []
    for scenario in study.scenarios:
        for design in study.designs:
            cell = study.cell(scenario, design)
            for name in sorted(cell.summaries):
                summary = cell.summaries[name]
                out.extend([summary.mean, summary.std, summary.minimum,
                            summary.maximum, summary.median, summary.var,
                            summary.cvar])
                out.extend(summary.percentiles.values())
                curve = cell.curves[name]
                out.extend(curve.thresholds)
                out.extend(curve.probabilities)
    return np.asarray(out)


class TestExecutorBitIdentity:
    def test_serial_thread_process_identical(self, model, designs, spec,
                                             scenario_set):
        results = {
            executor: run_scenario_study(
                model, designs, spec, scenario_set, N_SAMPLES, SEED,
                executor=executor, max_workers=2, chunk_scenarios=2,
            )
            for executor in ("serial", "thread", "process")
        }
        reference = study_fingerprint(results["serial"])
        for executor in ("thread", "process"):
            assert np.array_equal(
                study_fingerprint(results[executor]), reference
            ), executor

    def test_chunk_size_invariance(self, model, designs, spec,
                                   scenario_set):
        studies = [
            run_scenario_study(
                model, designs, spec, scenario_set, N_SAMPLES, SEED,
                chunk_scenarios=chunk,
            )
            for chunk in (1, 3, 100)
        ]
        reference = study_fingerprint(studies[0])
        for study in studies[1:]:
            assert np.array_equal(study_fingerprint(study), reference)

    def test_seed_changes_draws(self, model, designs, spec, scenario_set):
        a = run_scenario_study(model, designs, spec, scenario_set,
                               N_SAMPLES, SEED)
        b = run_scenario_study(model, designs, spec, scenario_set,
                               N_SAMPLES, SEED + 1)
        assert not np.array_equal(study_fingerprint(a),
                                  study_fingerprint(b))


class TestStudyShape:
    def test_cube_covers_every_cell(self, model, designs, spec,
                                    scenario_set):
        study = run_scenario_study(model, designs, spec, scenario_set,
                                   N_SAMPLES, SEED)
        assert study.scenarios == scenario_set.names
        assert study.designs == tuple(d.name for d in designs)
        assert study.baseline == "baseline"
        cell = study.cell("fab-outage:severe", designs[0].name)
        assert {"ttm_weeks", "cas"} <= set(cell.summaries)

    def test_cost_metric_present_with_cost_model(self, model, designs,
                                                 spec, scenario_set):
        from repro.cost.model import CostModel

        study = run_scenario_study(model, designs, spec, scenario_set,
                                   N_SAMPLES, SEED,
                                   cost_model=CostModel.nominal())
        cell = study.cell("baseline", designs[0].name)
        assert "cost_per_chip_usd" in cell.summaries

    def test_tables_have_one_row_per_scenario(self, model, designs, spec,
                                              scenario_set):
        study = run_scenario_study(model, designs, spec, scenario_set,
                                   N_SAMPLES, SEED)
        cvar = study.cvar_table("ttm_weeks", designs[0].name)
        exceed = study.exceedance_table("ttm_weeks", designs[0].name)
        for scenario in scenario_set.names:
            assert scenario in cvar
            assert scenario in exceed

    def test_unknown_metric_and_cell(self, model, designs, spec,
                                     scenario_set):
        study = run_scenario_study(model, designs, spec, scenario_set,
                                   N_SAMPLES, SEED)
        with pytest.raises(InvalidParameterError):
            study.cvar_table("nope", designs[0].name)
        with pytest.raises(KeyError):
            study.cell("no-such-scenario", designs[0].name)
        with pytest.raises(KeyError):
            study.cell("baseline", "no-such-design")

    def test_per_node_capacity_sampling_rejected(self, model, designs,
                                                 scenario_set):
        spec = SamplingSpec(
            parameters=(
                SampledParameter(
                    target="capacity",
                    node="7nm",
                    factor=Factor("capacity@7nm", 0.5, 0.9),
                ),
            ),
            n_chips=1e7,
        )
        with pytest.raises(InvalidParameterError):
            run_scenario_study(model, designs, spec, scenario_set,
                               N_SAMPLES, SEED)


class TestStressStudyWorkBudget:
    def test_fused_calls_cells_and_summary_blocks(
        self, model, cost_model, monkeypatch
    ):
        # The stress benchmark's study: every stress scenario, three
        # designs, 4,096 samples, serial, default chunks. A fallback to
        # per-scenario cubes or per-row summaries changes these counts
        # on any host.
        counts = {"evaluate": 0, "cells": 0, "summarize_block": 0}
        evaluate = scenario_study_module.evaluate
        summarize = results_module.summarize_block

        def counted_evaluate(*args, **kwargs):
            evaluation = evaluate(*args, **kwargs)
            counts["evaluate"] += 1
            counts["cells"] += evaluation.cells
            return evaluation

        def counted_summarize(*args, **kwargs):
            counts["summarize_block"] += 1
            return summarize(*args, **kwargs)

        monkeypatch.setattr(
            scenario_study_module, "evaluate", counted_evaluate
        )
        monkeypatch.setattr(
            results_module, "summarize_block", counted_summarize
        )
        scenarios = stress_scenarios(("all",))
        designs = (a11("7nm"), zen2(), zen2_monolithic("7nm"))
        study = run_scenario_study(
            model,
            designs,
            default_supply_spec(n_chips=1e7),
            scenarios,
            n_samples=4096,
            seed=SEED,
            cost_model=cost_model,
            executor="serial",
        )
        assert (scenarios.n_scenarios, DEFAULT_CHUNK_SCENARIOS) == (29, 8)
        assert len(study.cell("baseline", designs[0].name).summaries) == 3
        assert counts == {
            "evaluate": 4,  # ceil(29 / 8) chunks, TTM + CAS + cost each
            "cells": 29 * 3 * 4096,  # 356,352
            "summarize_block": 12,  # 3 metrics x 4 chunks
        }


class TestCVaR:
    def test_upper_tail_hand_computed(self):
        values = np.arange(1.0, 101.0)  # 1..100
        # 95th percentile of 1..100 is 95.05; tail = {96..100}.
        expected = np.mean([96.0, 97.0, 98.0, 99.0, 100.0])
        assert conditional_value_at_risk(values, 0.95) == pytest.approx(
            expected, abs=1.5
        )

    def test_lower_tail(self):
        values = np.arange(1.0, 101.0)
        result = conditional_value_at_risk(values, 0.95, tail="lower")
        assert result < 10.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            conditional_value_at_risk(np.asarray([]), 0.95)
        with pytest.raises(InvalidParameterError):
            conditional_value_at_risk(np.asarray([1.0]), 0.4)
        with pytest.raises(InvalidParameterError):
            conditional_value_at_risk(np.asarray([1.0]), 0.95,
                                      tail="sideways")
