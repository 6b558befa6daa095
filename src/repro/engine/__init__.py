"""Batched evaluation engine: one compiled design table, one kernel family.

Every analysis in the reproduction (the Fig. 3/9-13 capacity sweeps, the
Fig. 8 Sobol heatmap, CAS finite differences, Monte Carlo studies, grid
search) asks the paper's Eq. 1-8 model the same questions over many
points. This package answers them in NumPy:

* :mod:`repro.engine.portfolio` -- :func:`compile_portfolio` compiles
  designs into one cached column table, ``portfolio_ttm`` /
  ``portfolio_cas`` evaluate it over ``(designs x samples)`` with common
  random numbers, and ``portfolio_cost`` prices it;
* :mod:`repro.engine.scenario` -- the one TTM and CAS kernel, over a
  (scenarios x designs x samples) cube: ``portfolio_ttm`` /
  ``portfolio_cas`` are the cube on one identity scenario, and
  ``scenario_evaluate`` runs it over a stress library;
* :mod:`repro.engine.batch` -- ``batch_ttm`` / ``batch_cas`` /
  ``batch_cost`` and the ``*_over_capacity`` sweeps: one design's grid
  run as a 1-design portfolio;
* :mod:`repro.engine.invariants` -- the shared LRU of compiled tables;
* :mod:`repro.engine.batch_split` -- the Sec. 7 multi-process split
  engine;
* :mod:`repro.engine.requests` -- fused point requests (the serve path);
* :mod:`repro.engine.knobs` -- ``knob_signature``, the supply-knob shape
  key ``point_signature`` and the shard router share;
* :mod:`repro.engine.sobol_adapter` -- one-shot Saltelli-matrix
  objectives for ``sobol_indices(..., vectorized=True)``;
* :mod:`repro.engine.parallel` -- ``parallel_map`` with serial / thread /
  process executors and a safe serial fallback.

The scalar model is the oracle: the equivalence suites (``tests/engine``)
pin every kernel to it at <= 1e-9 relative error, over drawn supply
knobs too.

The package imports a submodule the first time one of its names is
read (:mod:`repro._lazy`), so ``knobs`` and ``parallel``, which import
no NumPy, can be used without loading the kernels.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".batch": (
            "BatchCASResult",
            "BatchTTMResult",
            "batch_cas",
            "batch_ttm",
            "cas_over_capacity",
            "ttm_over_capacity",
        ),
        ".batch_split": (
            "SplitGridResult",
            "SplitSampleResult",
            "batch_split",
            "batch_split_samples",
            "refine_split_exact",
            "refine_split_grid",
        ),
        ".invariants": (
            "cached_invariants",
            "clear_invariant_cache",
            "invariant_cache_info",
        ),
        ".parallel": ("EXECUTORS", "parallel_map"),
        ".portfolio": (
            "PortfolioCASResult",
            "PortfolioCostResult",
            "PortfolioInvariants",
            "PortfolioTTMResult",
            "compile_portfolio",
            "portfolio_cas",
            "portfolio_cas_over_capacity",
            "portfolio_cost",
            "portfolio_fingerprint",
            "portfolio_ttm",
            "portfolio_ttm_over_capacity",
        ),
        ".requests": (
            "POINT_METRICS",
            "PointRequest",
            "fused_point_eval",
            "point_signature",
        ),
        ".scenario": (
            "Scenario",
            "ScenarioCASResult",
            "ScenarioCostResult",
            "ScenarioCubeResult",
            "ScenarioSet",
            "ScenarioTTMResult",
            "apply_scenario",
            "compile_scenarios",
            "scenario_cost",
            "scenario_evaluate",
        ),
        ".sobol_adapter": (
            "rowwise_batch_function",
            "ttm_factor_batch_function",
        ),
    },
)

__all__ = [
    "BatchCASResult",
    "BatchTTMResult",
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
    "scenario_cost",
    "scenario_evaluate",
    "ttm_factor_batch_function",
]
