"""Batched evaluation engine: one compiled design table, one evaluation call.

Every analysis in the reproduction (the Fig. 3/9-13 capacity sweeps, the
Fig. 8 Sobol heatmap, CAS finite differences, Monte Carlo studies, grid
search) asks the paper's Eq. 1-8 model the same questions over many
points. This package answers them in NumPy:

* :mod:`repro.engine.scenario` -- :func:`evaluate`, the one evaluation
  call: TTM, CAS and cost of every design under every scenario of a
  stress set (the identity scenario by default) and every sample, from
  one pass of the engine's only TTM and CAS kernel, the scenario cube;
  :class:`Evaluation` holds one result type per metric;
* :mod:`repro.engine.portfolio` -- :func:`compile_portfolio` compiles
  designs into the one cached column table ``evaluate`` reads;
* :mod:`repro.engine.invariants` -- the shared LRU of compiled tables;
* :mod:`repro.engine.batch_split` -- the Sec. 7 multi-process split
  engine;
* :mod:`repro.engine.requests` -- fused point requests (the serve path);
* :mod:`repro.engine.knobs` -- ``knob_signature``, the supply-knob shape
  key ``point_signature`` and the shard router share;
* :mod:`repro.engine.sobol_adapter` -- one-shot Saltelli-matrix
  objectives for ``sobol_indices(..., vectorized=True)``;
* :mod:`repro.engine.parallel` -- ``parallel_map`` with serial / thread /
  process executors and a safe serial fallback;
* :mod:`repro.engine.batch` -- five names the benchmark's traced run
  wraps (like ``scenario_evaluate`` and five in ``portfolio``), each
  forwarding to ``evaluate``; nothing in the package calls them.

The scalar model is the oracle: the equivalence suites (``tests/engine``)
pin ``evaluate`` to it at <= 1e-9 relative error, over drawn supply
knobs too.

The package imports a submodule the first time one of its names is
read (:mod:`repro._lazy`), so ``knobs`` and ``parallel``, which import
no NumPy, can be used without loading the kernels.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
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
            "PortfolioInvariants",
            "compile_portfolio",
            "portfolio_fingerprint",
        ),
        ".requests": ("PointRequest", "fused_point_eval", "point_signature"),
        ".scenario": (
            "CASCube",
            "CostCube",
            "Evaluation",
            "POINT_METRICS",
            "Scenario",
            "ScenarioSet",
            "TTMCube",
            "apply_scenario",
            "compile_scenarios",
            "evaluate",
        ),
        ".sobol_adapter": (
            "rowwise_batch_function",
            "ttm_factor_batch_function",
        ),
    },
)

__all__ = [
    "CASCube",
    "CostCube",
    "EXECUTORS",
    "Evaluation",
    "POINT_METRICS",
    "PointRequest",
    "PortfolioInvariants",
    "Scenario",
    "ScenarioSet",
    "SplitGridResult",
    "SplitSampleResult",
    "TTMCube",
    "apply_scenario",
    "batch_split",
    "batch_split_samples",
    "cached_invariants",
    "clear_invariant_cache",
    "compile_portfolio",
    "compile_scenarios",
    "evaluate",
    "fused_point_eval",
    "invariant_cache_info",
    "parallel_map",
    "point_signature",
    "portfolio_fingerprint",
    "refine_split_exact",
    "refine_split_grid",
    "rowwise_batch_function",
    "ttm_factor_batch_function",
]
