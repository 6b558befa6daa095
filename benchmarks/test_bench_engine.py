"""Benchmark: batched engine kernels vs the scalar evaluation paths.

Each benchmark times the batched hot path and asserts (a) numerical
equivalence with the scalar path and (b) a modest speedup floor (the
headline numbers live in ``scripts/bench_engine.py`` -> BENCH_engine.json;
the floors here are deliberately loose so CI machines don't flake).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.agility.cas import chip_agility_score
from repro.analysis.sweep import capacity_fractions, chip_quantities
from repro.design.library.a11 import (
    A11_TOTAL_TRANSISTORS,
    A11_UNIQUE_TRANSISTORS,
    a11,
)
from repro.design.library.ariane import ariane_manycore
from repro.design.library.raven import raven_multicore
from repro.engine.batch import batch_ttm, cas_over_capacity
from repro.engine.batch_split import batch_split
from repro.engine.portfolio import portfolio_ttm
from repro.engine.sobol_adapter import ttm_factor_batch_function
from repro.market.conditions import MarketConditions
from repro.multiprocess.optimizer import run_split_study
from repro.sensitivity.sobol import sobol_indices
from repro.sensitivity.ttm_factors import ttm_factor_function, ttm_factors

N_CHIPS = 1e7
SMOKE_SPEEDUP_FLOOR = 3.0


def _best_of(repeats, call):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_batch_cas_sweep(benchmark, model):
    design = a11("7nm")
    fractions = capacity_fractions(0.05, 1.0, 20)
    quantities = np.asarray(chip_quantities()).reshape(-1, 1)

    batched = benchmark(
        cas_over_capacity, model, design, quantities, fractions
    )
    assert batched.shape == (len(chip_quantities()), len(fractions))
    for i, n in enumerate(chip_quantities()):
        for j, fraction in enumerate(fractions):
            scalar = chip_agility_score(
                model.at_capacity(fraction), design, n
            ).normalized
            assert batched[i, j] == pytest.approx(scalar, rel=1e-9)


def test_bench_vectorized_sobol(benchmark, model):
    factors = ttm_factors(
        "7nm", A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS
    )
    function = ttm_factor_batch_function("7nm", N_CHIPS)

    result = benchmark(
        sobol_indices, function, factors, 128, vectorized=True
    )
    assert result.evaluations == 128 * (len(factors) + 2)
    scalar = sobol_indices(
        ttm_factor_function("7nm", N_CHIPS), factors, base_samples=128
    )
    for name, value in scalar.total_effect.items():
        assert result.total_effect[name] == pytest.approx(
            value, rel=1e-9, abs=1e-12
        )


def test_engine_speedup_smoke(model):
    """Batched sweeps must beat scalar loops by a comfortable margin."""
    design = a11("7nm")
    fractions = capacity_fractions(0.05, 1.0, 20)
    quantities = np.asarray(chip_quantities()).reshape(-1, 1)

    def scalar_sweep():
        return [
            chip_agility_score(
                model.at_capacity(fraction), design, float(n)
            ).normalized
            for n in chip_quantities()
            for fraction in fractions
        ]

    def batched_sweep():
        return cas_over_capacity(model, design, quantities, fractions)

    batched_sweep()  # warm the invariant cache before timing
    scalar_time = _best_of(3, scalar_sweep)
    batched_time = _best_of(3, batched_sweep)
    assert scalar_time / batched_time >= SMOKE_SPEEDUP_FLOOR


def test_batch_ttm_quantity_row_matches_scalar(model):
    design = a11("28nm")
    totals = batch_ttm(model, design, chip_quantities()).total_weeks
    for n, weeks in zip(chip_quantities(), totals):
        assert weeks == pytest.approx(
            model.total_weeks(design, n), rel=1e-9
        )


#: A reduced Fig. 14 study: 4 nodes x a 5% grid keeps the scalar oracle
#: affordable inside the benchmark suite.
SPLIT_NODES = ("65nm", "40nm", "28nm", "14nm")
SPLIT_GRID = tuple(s / 20 for s in range(1, 21))
SPLIT_PAIRS = tuple(
    (primary, secondary)
    for i, secondary in enumerate(SPLIT_NODES)
    for primary in SPLIT_NODES[i:]
)


def test_bench_batch_split_tensor(benchmark, model, cost_model):
    result = benchmark(
        batch_split,
        raven_multicore,
        SPLIT_PAIRS,
        model,
        cost_model,
        N_CHIPS,
        SPLIT_GRID,
    )
    assert result.ttm_weeks.shape == (len(SPLIT_PAIRS), len(SPLIT_GRID))
    oracle = run_split_study(
        raven_multicore,
        SPLIT_NODES,
        model,
        cost_model,
        N_CHIPS,
        split_grid=SPLIT_GRID,
        engine="scalar",
    )
    for index, key in enumerate(SPLIT_PAIRS):
        best = result.best_evaluation(index)
        expected = oracle.pairs[key].best
        assert best.split == expected.split
        assert best.cas == pytest.approx(expected.cas, rel=1e-9)
        assert best.ttm_weeks == pytest.approx(expected.ttm_weeks, rel=1e-9)


#: A reduced portfolio_mc workload: 16 designs x 512 shared samples
#: keeps the scalar oracle (and the scalar smoke loop) affordable.
def _portfolio_workload(n_designs=16, n_samples=512, seed=20230613):
    designs = [
        ariane_manycore(process, cores=cores)
        for process in ("40nm", "28nm", "14nm", "7nm")
        for cores in (4, 8, 16, 32)
    ][:n_designs]
    rng = np.random.default_rng(seed)
    capacity = rng.uniform(0.2, 1.0, n_samples)
    queue_weeks = rng.uniform(0.0, 20.0, n_samples)
    demand = rng.uniform(1e6, 5e7, n_samples)
    return designs, capacity, queue_weeks, demand


def test_bench_portfolio_ttm_tensor(benchmark, model):
    designs, capacity, queue_weeks, demand = _portfolio_workload()

    result = benchmark(
        portfolio_ttm,
        model,
        designs,
        demand,
        capacity,
        queue_weeks,
    )
    assert result.total_weeks.shape == (len(designs), len(demand))
    stressed = [
        model.with_foundry(
            model.foundry.with_conditions(
                MarketConditions.nominal()
                .with_global_capacity(float(capacity[j]))
                .with_global_queue(float(queue_weeks[j]))
            )
        )
        for j in range(len(demand))
    ]
    for i, design in enumerate(designs):
        oracle = [
            sample_model.total_weeks(design, float(demand[j]))
            for j, sample_model in enumerate(stressed)
        ]
        assert float(np.max(np.abs(result.total_weeks[i] - oracle))) <= 1e-9


def test_portfolio_speedup_smoke(model):
    """The fused portfolio pass must beat the scalar design loop."""
    designs, capacity, queue_weeks, demand = _portfolio_workload(
        n_designs=8, n_samples=64
    )

    def scalar_loop():
        stressed = [
            model.with_foundry(
                model.foundry.with_conditions(
                    MarketConditions.nominal()
                    .with_global_capacity(float(capacity[j]))
                    .with_global_queue(float(queue_weeks[j]))
                )
            )
            for j in range(len(demand))
        ]
        return [
            [
                sample_model.total_weeks(design, float(demand[j]))
                for j, sample_model in enumerate(stressed)
            ]
            for design in designs
        ]

    def fused():
        return portfolio_ttm(
            model, designs, demand, capacity=capacity, queue_weeks=queue_weeks
        )

    fused()  # warm the invariant cache before timing
    scalar_time = _best_of(3, scalar_loop)
    fused_time = _best_of(3, fused)
    assert scalar_time / fused_time >= SMOKE_SPEEDUP_FLOOR


def test_split_engine_speedup_smoke(model, cost_model):
    """The batched split study must beat the scalar loop comfortably."""

    def scalar_study():
        return run_split_study(
            raven_multicore,
            SPLIT_NODES,
            model,
            cost_model,
            N_CHIPS,
            split_grid=SPLIT_GRID,
            engine="scalar",
        )

    def batched_study():
        return batch_split(
            raven_multicore,
            SPLIT_PAIRS,
            model,
            cost_model,
            N_CHIPS,
            SPLIT_GRID,
        )

    batched_study()  # warm the invariant cache before timing
    scalar_time = _best_of(2, scalar_study)
    batched_time = _best_of(3, batched_study)
    assert scalar_time / batched_time >= SMOKE_SPEEDUP_FLOOR
