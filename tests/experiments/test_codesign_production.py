"""Tests for the codesign search's optional production-split stage."""

import pytest

from repro.analysis.search import SearchSpace, grid_search
from repro.design.library.ariane import ariane_manycore
from repro.experiments import codesign_search
from repro.perf.ipc import IPCModel

#: A tiny joint space keeps the grid search fast; the production stage
#: is the thing under test.
SMALL = dict(
    processes=("40nm", "28nm"),
    cores=(8,),
    caches_kb=(16, 32),
)


@pytest.fixture(scope="module")
def result(model, cost_model):
    return codesign_search.run(model, cost_model, **SMALL)


@pytest.fixture(scope="module")
def with_production(model, cost_model):
    return codesign_search.run(
        model,
        cost_model,
        **SMALL,
        split_processes=("65nm", "40nm", "28nm"),
        split_grid=tuple(s / 10 for s in range(1, 11)),
    )


class TestProductionStage:
    def test_default_run_has_no_production_plan(self, result):
        assert result.production is None
        assert "production:" not in result.table()

    def test_production_plan_covers_requested_nodes(self, with_production):
        plan = with_production.production
        assert plan is not None
        assert plan.primary in ("65nm", "40nm", "28nm")
        assert plan.secondary in ("65nm", "40nm", "28nm")
        assert 0.0 < plan.best.split <= 1.0
        assert plan.best.cas > 0.0

    def test_winning_architecture_is_unchanged(self, result, with_production):
        # The production stage is appended after the search; it must not
        # perturb the architectural winner.
        assert with_production.best == result.best
        assert with_production.evaluated == result.evaluated

    def test_table_reports_the_plan(self, with_production):
        assert "production:" in with_production.table()

    def test_refine_split_keeps_a_valid_plan(self, model, cost_model):
        refined = codesign_search.run(
            model,
            cost_model,
            **SMALL,
            split_processes=("40nm", "28nm"),
            split_grid=tuple(s / 10 for s in range(1, 11)),
            refine_split=True,
        )
        plan = refined.production
        assert plan is not None
        assert 0.0 < plan.best.split <= 1.0


#: A configuration's coordinates, in ``CodesignPoint`` order.
KEYS = ("process", "cores", "icache_kb", "dcache_kb")


def scalar_search(model, cost_model, processes, cores, caches_kb):
    """The per-configuration scalar search ``run`` replaces: each point's
    TTM and cost from the scalar models, scored lazily by the same grid
    search. The oracle its one evaluation call must equal."""
    ttm_model = model.at_capacity(codesign_search.DEFAULT_CAPACITY_SHARE)
    perf = IPCModel()
    n_chips = codesign_search.DEFAULT_N_CHIPS
    cache = {}

    def point(cfg):
        key = tuple(cfg[name] for name in KEYS)
        if key not in cache:
            process, n_cores, icache_kb, dcache_kb = key
            design = ariane_manycore(
                process, cores=n_cores, icache_kb=icache_kb,
                dcache_kb=dcache_kb,
            )
            ipc = perf.ipc(icache_kb, dcache_kb)
            cache[key] = codesign_search.CodesignPoint(
                process=process,
                cores=n_cores,
                icache_kb=icache_kb,
                dcache_kb=dcache_kb,
                ipc=ipc,
                throughput=n_cores * ipc,
                ttm_weeks=ttm_model.total_weeks(design, n_chips),
                cost_usd=cost_model.total_usd(design, n_chips),
            )
        return cache[key]

    space = SearchSpace({
        "process": tuple(processes),
        "cores": tuple(cores),
        "icache_kb": tuple(caches_kb),
        "dcache_kb": tuple(caches_kb),
    })
    outcome = grid_search(
        space,
        objective=lambda cfg: point(cfg).throughput_per_week,
        constraints=[
            lambda cfg: point(cfg).cost_usd
            <= codesign_search.DEFAULT_BUDGET_USD
        ],
    )
    return point(outcome.best), outcome


class TestEngines:
    def test_portfolio_matches_scalar(self, model, cost_model):
        fused = codesign_search.run(model, cost_model, **SMALL)
        best, outcome = scalar_search(model, cost_model, **SMALL)
        assert fused.best.process == best.process
        assert fused.best.cores == best.cores
        assert fused.best.icache_kb == best.icache_kb
        assert fused.best.dcache_kb == best.dcache_kb
        assert fused.best.ttm_weeks == pytest.approx(best.ttm_weeks, rel=1e-9)
        assert fused.best.cost_usd == pytest.approx(best.cost_usd, rel=1e-9)
        assert fused.feasible == outcome.feasible
        assert fused.evaluated == outcome.evaluated
