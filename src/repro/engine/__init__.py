"""Batched evaluation engine: vectorized TTM/CAS kernels + parallel sweeps.

Every analysis in the reproduction (the Fig. 3/9-13 capacity sweeps, the
Fig. 8 Sobol heatmap, CAS finite differences, grid search) funnels
through ``TTMModel.time_to_market``, which re-derives per-(design, node)
invariants on every scalar call. This package makes the hot paths cheap:

* :mod:`repro.engine.invariants` -- per-(design, technology) quantities
  that do not vary across a sweep, computed once and LRU-cached;
* :mod:`repro.engine.batch` -- vectorized NumPy kernels ``batch_ttm`` and
  ``batch_cas`` plus the ``*_over_capacity`` sweep conveniences;
* :mod:`repro.engine.batch_split` -- the Sec. 7 multi-process split
  engine: the full (pair x split-grid) tensor, coarse -> fine grid
  refinement, and sampled-supply evaluation of a fixed production split;
* :mod:`repro.engine.portfolio` -- the design-axis stack: one compiled
  structure-of-arrays portfolio evaluated over ``(designs x samples)``
  in a single broadcasted pass with common random numbers;
* :mod:`repro.engine.sobol_adapter` -- one-shot Saltelli-matrix
  objectives for ``sobol_indices(..., vectorized=True)``;
* :mod:`repro.engine.parallel` -- ``parallel_map`` with serial / thread /
  process executors and a safe serial fallback.

Batched results match the scalar model to floating-point round-off; the
equivalence suite (``tests/engine``) pins them to <= 1e-9 relative error
and ``scripts/bench_engine.py`` tracks the speedups in
``BENCH_engine.json``.
"""

from .batch import (
    BatchCASResult,
    BatchTTMResult,
    batch_cas,
    batch_ttm,
    cas_over_capacity,
    ttm_over_capacity,
)
from .batch_split import (
    SplitGridResult,
    SplitSampleResult,
    batch_split,
    batch_split_samples,
    refine_split_exact,
    refine_split_grid,
)
from .invariants import (
    DesignInvariants,
    cached_invariants,
    clear_invariant_cache,
    compute_invariants,
    design_invariants,
    invariant_cache_info,
)
from .parallel import EXECUTORS, parallel_map
from .portfolio import (
    PortfolioCASResult,
    PortfolioCostResult,
    PortfolioInvariants,
    PortfolioTTMResult,
    compile_portfolio,
    portfolio_cas,
    portfolio_cas_over_capacity,
    portfolio_cost,
    portfolio_fingerprint,
    portfolio_ttm,
    portfolio_ttm_over_capacity,
)
from .requests import (
    POINT_METRICS,
    PointRequest,
    fused_point_eval,
    point_signature,
)
from .scenario import (
    Scenario,
    ScenarioCASResult,
    ScenarioCostResult,
    ScenarioCubeResult,
    ScenarioSet,
    ScenarioTTMResult,
    apply_scenario,
    compile_scenarios,
    scenario_cas,
    scenario_cost,
    scenario_evaluate,
    scenario_ttm,
)
from .sobol_adapter import rowwise_batch_function, ttm_factor_batch_function

__all__ = [
    "BatchCASResult",
    "BatchTTMResult",
    "DesignInvariants",
    "EXECUTORS",
    "POINT_METRICS",
    "PointRequest",
    "PortfolioCASResult",
    "PortfolioCostResult",
    "PortfolioInvariants",
    "PortfolioTTMResult",
    "Scenario",
    "ScenarioCASResult",
    "ScenarioCostResult",
    "ScenarioCubeResult",
    "ScenarioSet",
    "ScenarioTTMResult",
    "SplitGridResult",
    "SplitSampleResult",
    "apply_scenario",
    "batch_cas",
    "batch_split",
    "batch_split_samples",
    "batch_ttm",
    "cached_invariants",
    "cas_over_capacity",
    "clear_invariant_cache",
    "compile_portfolio",
    "compile_scenarios",
    "compute_invariants",
    "design_invariants",
    "fused_point_eval",
    "invariant_cache_info",
    "parallel_map",
    "point_signature",
    "portfolio_cas",
    "portfolio_cas_over_capacity",
    "portfolio_cost",
    "portfolio_fingerprint",
    "portfolio_ttm",
    "portfolio_ttm_over_capacity",
    "refine_split_exact",
    "refine_split_grid",
    "rowwise_batch_function",
    "scenario_cas",
    "scenario_cost",
    "scenario_evaluate",
    "scenario_ttm",
    "ttm_factor_batch_function",
]
