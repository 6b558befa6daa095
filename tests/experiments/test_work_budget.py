"""Work-count budget of one figures pass.

Running every registry experiment once is one ``ttm-cas run all`` pass,
the ``figures`` benchmark's unit of work. It makes an exact number of
scalar ``TTMModel.time_to_market`` calls, ``ariane_manycore`` design
builds, table compiles and kernel calls, whatever the host: a study that
falls back to a per-point loop changes these counts on any machine. The
compile cache is cleared before each experiment, so its misses count the
tables that experiment builds, whatever the tests run before.
"""

import importlib
import sys
from collections import Counter

import pytest

from repro.design.library import ariane
from repro.engine.invariants import (
    clear_invariant_cache,
    invariant_cache_info,
)
from repro.experiments import registry
from repro.obs.instrument import KERNEL_INVOCATIONS
from repro.ttm.model import TTMModel

KERNELS = (
    "compile_portfolio",
    "portfolio_ttm",
    "portfolio_cas",
    "portfolio_cost",
)


@pytest.fixture(scope="module")
def pass_counts():
    """Per experiment: scalar TTM calls, kernel calls, ``batch_*`` calls
    and compile-cache misses."""
    counts = {key: Counter() for key in registry.experiment_keys()}
    running = [None]
    patch = pytest.MonkeyPatch()
    time_to_market = TTMModel.time_to_market

    def counted_scalar(self, *args, **kwargs):
        counts[running[0]]["time_to_market"] += 1
        return time_to_market(self, *args, **kwargs)

    patch.setattr(TTMModel, "time_to_market", counted_scalar)
    build = ariane.ariane_manycore

    def counted_build(*args, **kwargs):
        counts[running[0]]["ariane_manycore"] += 1
        return build(*args, **kwargs)

    # Every module that imported the constructor holds its own name.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and (
            getattr(module, "ariane_manycore", None) is build
        ):
            patch.setattr(module, "ariane_manycore", counted_build)
    # ``repro.engine`` re-exports ``batch`` and ``batch_split`` functions
    # under the module names, so the modules are looked up by path.
    for path in ("repro.engine.batch", "repro.engine.batch_split"):
        module = importlib.import_module(path)
        for name in ("batch_ttm", "batch_cost"):
            kernel = getattr(module, name)

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                counts[running[0]][_name] += 1
                return _kernel(*args, **kwargs)

            patch.setattr(module, name, counted)
    try:
        for key, experiment in registry.EXPERIMENTS.items():
            running[0] = key
            before = {
                name: KERNEL_INVOCATIONS.value(kernel=f"engine.{name}")
                for name in KERNELS
            }
            clear_invariant_cache()
            experiment.run().table()
            counts[key]["compile_misses"] = invariant_cache_info()["misses"]
            for name in KERNELS:
                calls = KERNEL_INVOCATIONS.value(kernel=f"engine.{name}")
                counts[key][name] += int(calls - before[name])
    finally:
        patch.undo()
    return counts


def per_experiment(counts, name):
    return {key: c[name] for key, c in counts.items() if c[name]}


class TestFiguresWorkBudget:
    def test_scalar_time_to_market_calls(self, pass_counts):
        # The scalar model stays where a study needs per-design Python
        # (Fig. 7's breakdown, the interposer, profit and ramp studies);
        # robustness and Figs. 4/5 score through the kernels.
        assert per_experiment(pass_counts, "time_to_market") == {
            "fig7": 10,
            "interposer": 48,
            "profit": 18,
            "ramp": 11,
        }

    def test_ariane_design_builds(self, pass_counts):
        # Designs are rebuilt every pass. Fig. 6 builds its 10 x 121
        # (I$, D$) grid and one cache-less reference design per node.
        assert per_experiment(pass_counts, "ariane_manycore") == {
            "codesign": 500,
            "fig4": 121,
            "fig5": 121,
            "fig6": 1220,
        }

    def test_compile_portfolio_calls(self, pass_counts):
        assert per_experiment(pass_counts, "compile_portfolio") == {
            "codesign": 2,
            "fig3": 2,
            "fig4": 1,
            "fig5": 2,
            "fig6": 1,
            "fig9": 1,
            "fig10": 1,
            "fig11": 1,
            "fig12": 1,
            "fig13": 3,
            "fig14": 2,
            "mc-disruption": 6,
            "robustness": 1,
        }

    def test_one_compile_miss_per_compiling_experiment(self, pass_counts):
        # Every nominal model reads the one default database, so an
        # experiment's TTM, CAS and cost kernels share one table.
        misses = per_experiment(pass_counts, "compile_misses")
        compiling = per_experiment(pass_counts, "compile_portfolio")
        assert misses == dict.fromkeys(compiling, 1)
        assert sum(misses.values()) == 13

    def test_one_table_per_study(self, pass_counts):
        # Robustness's 48 calibration worlds, Fig. 14's production lines
        # and Figs. 4-6's cache grids each read one table per metric.
        for key, kernels in (
            ("robustness", {"portfolio_ttm": 1, "portfolio_cas": 1}),
            ("fig14", {"portfolio_ttm": 1, "portfolio_cost": 1}),
            ("fig4", {"portfolio_ttm": 1}),
            ("fig5", {"portfolio_ttm": 1, "portfolio_cost": 1}),
            ("fig6", {"portfolio_ttm": 1}),
            ("fig9", {"portfolio_cas": 1}),
            ("fig10", {"portfolio_ttm": 1}),
        ):
            counts = pass_counts[key]
            assert {name: counts[name] for name in kernels} == kernels, key

    def test_fig14_makes_no_one_design_calls(self, pass_counts):
        assert pass_counts["fig14"]["batch_ttm"] == 0
        assert pass_counts["fig14"]["batch_cost"] == 0

    def test_figs_11_and_12_are_one_grid_each(self, pass_counts):
        assert pass_counts["fig11"]["portfolio_ttm"] == 1
        assert pass_counts["fig12"]["portfolio_cas"] == 1
