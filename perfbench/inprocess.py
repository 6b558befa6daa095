"""The pass loop shared by the in-process workloads (figures, stress_study).

A run is:

1. (untraced runs) ``COLD_STARTS`` fresh interpreters, each timed until
   the workload's ``prepare`` returns: ``setup_s`` is their median,
   rescaled to the reference host speed like the passes. (Traced runs)
   one fresh interpreter that also times its first pass at once:
   ``cold.first_pass_ms``, what a one-shot job such as ``ttm-cas run all``
   pays;
2. ``prepare`` in this process, then one warm-up pass that is checked
   but not timed (caches fill, lazy set-up finishes);
3. passes until ``--seconds`` have gone by, with the probe timed just
   before and just after each pass; before every probe the process must
   hold no extra threads or children (:class:`~perfbench.common.Hygiene`).
   Outputs are checked after the timer stops. ``p50_ms`` is the median
   over passes of ``pass / mean(probe before, probe after)`` times the
   probe's reference time; the probe is the workload's ``PROBE``.
   The passes measure the warm steady state of one process, so a cache
   kept from pass to pass counts; ``cold.first_pass_ms`` shows what it
   leaves out.

A traced run alternates untraced and traced passes (program functions
wrapped by :mod:`perfbench.tracing`); per-layer figures are means per
traced pass and ``trace.overhead_pct`` compares the two kinds' scaled
medians.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol

from . import common
from .tracing import ROOT_LAYER, Patcher, SpanRecorder

#: Fresh interpreters timed per untraced run for ``setup_s``.
COLD_STARTS = 5

#: Per-layer metric prefixes the in-process tracer measures.
LAYERS = (
    "cold.",
    "experiments.",
    "ttm.",
    "sensitivity.",
    "perf.",
    "analysis.",
    "montecarlo.",
    "engine.kernels.",
    "engine.scenario.",
    "engine.portfolio.",
    "engine.invariant_cache.",
    "host.",
    "trace.",
)

#: Layers whose inclusive time per pass is reported as ``<layer>.ms``.
INCLUSIVE_LAYERS = (
    "sensitivity.uncertainty_bands",
    "sensitivity.sobol_indices",
    "perf.ipc",
    "analysis.search",
    "montecarlo.study",
    "engine.kernels",
    "montecarlo.spec.sample",
    "engine.scenario.compile_scenarios",
    "engine.portfolio.compile_portfolio",
    "engine.scenario.scenario_evaluate",
    "montecarlo.results.summary",
    "montecarlo.results.curve",
)
#: Layers whose self time per pass is reported as ``<layer>.self_ms``.
SELF_LAYERS = ("ttm.time_to_market", "montecarlo.scenario_study")
#: Layers whose call count per pass is reported as ``<layer>.calls``.
COUNTED_LAYERS = ("ttm.time_to_market", "montecarlo.results.summary")


class Workload(Protocol):
    NAME: str
    #: Host-speed probe whose kernels resemble the workload's own work.
    PROBE: common.Probe

    def prepare(self, seed: int) -> Any: ...

    def run_pass(
        self, state: Any, index: int, recorder: Optional[SpanRecorder]
    ) -> Any: ...

    def check(self, state: Any, index: int, outputs: Any) -> List[str]: ...


@dataclass
class Settings:
    seed: int
    seconds: float
    trace: bool
    #: Test hook: applied to each timed pass's outputs before checking.
    corrupt: Optional[Callable[[Any], Any]] = None


def install_wrappers(patcher: Patcher) -> None:
    """Wrap the public functions each per-layer metric names."""
    from repro.perf.ipc import IPCModel, ipc_bounds
    from repro.ttm.model import TTMModel

    # Packages re-export functions under their submodules' names (e.g.
    # ``repro.engine.batch_split``), so fetch the modules themselves.
    (
        search, batch, batch_split, portfolio, scenario, sobol_adapter,
        results, scenario_study, spec, study, sobol, uncertainty,
    ) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "analysis.search", "engine.batch", "engine.batch_split",
            "engine.portfolio", "engine.scenario", "engine.sobol_adapter",
            "montecarlo.results", "montecarlo.scenario_study",
            "montecarlo.spec", "montecarlo.study", "sensitivity.sobol",
            "sensitivity.uncertainty",
        )
    )

    patcher.method("ttm.time_to_market", TTMModel, "time_to_market")
    patcher.function(
        "sensitivity.uncertainty_bands", uncertainty.uncertainty_bands
    )
    patcher.function("sensitivity.sobol_indices", sobol.sobol_indices)
    for name in ("cpi", "ipc", "ipc_from_mpki"):
        patcher.method("perf.ipc", IPCModel, name)
    patcher.function("perf.ipc", ipc_bounds)
    patcher.function("analysis.search", search.grid_search)
    patcher.function("montecarlo.study", study.run_study)
    patcher.function("montecarlo.study", study.compare_designs)
    for kernel in (
        batch.batch_ttm,
        batch.batch_cas,
        batch.batch_cost,
        batch.ttm_over_capacity,
        batch.cas_over_capacity,
        portfolio.portfolio_ttm,
        portfolio.portfolio_cas,
        portfolio.portfolio_cost,
        portfolio.portfolio_ttm_over_capacity,
        portfolio.portfolio_cas_over_capacity,
        batch_split.batch_split,
        batch_split.batch_split_samples,
    ):
        patcher.function("engine.kernels", kernel)
    patcher.factory("engine.kernels", sobol_adapter.ttm_factor_batch_function)
    patcher.factory("engine.kernels", sobol_adapter.rowwise_batch_function)
    patcher.method("montecarlo.spec.sample", spec.SamplingSpec, "sample")
    patcher.function(
        "engine.scenario.compile_scenarios", scenario.compile_scenarios
    )
    patcher.function(
        "engine.portfolio.compile_portfolio", portfolio.compile_portfolio
    )
    patcher.function(
        "engine.scenario.scenario_evaluate",
        scenario.scenario_evaluate,
        count=lambda cube: int(cube.ttm.total_weeks.size),
    )
    patcher.method(
        "montecarlo.results.summary", results.MetricSummary, "from_samples"
    )
    patcher.method(
        "montecarlo.results.curve", results.ExceedanceCurve, "from_samples"
    )
    patcher.function(
        "montecarlo.scenario_study", scenario_study.run_scenario_study
    )


def _cache_counts() -> Dict[str, float]:
    from repro.obs.metrics import get_registry

    snapshot = get_registry().snapshot()
    return {
        kind: sum(
            value
            for key, value in snapshot.items()
            if key.startswith(f"invariant_cache_{kind}_total")
        )
        for kind in ("hits", "misses")
    }


def layer_metrics(recorder: SpanRecorder, passes: int) -> Dict[str, float]:
    """Per-pass layer metrics from a traced run's spans."""
    totals = recorder.layer_totals()
    metrics: Dict[str, float] = {}
    ns = 1e6 * passes
    for layer in INCLUSIVE_LAYERS:
        entry = totals.get(layer)
        metrics[f"{layer}.ms"] = entry.inclusive_ns / ns if entry else 0.0
    for layer in SELF_LAYERS:
        entry = totals.get(layer)
        metrics[f"{layer}.self_ms"] = entry.self_ns / ns if entry else 0.0
    for layer in COUNTED_LAYERS:
        entry = totals.get(layer)
        metrics[f"{layer}.calls"] = entry.calls / passes if entry else 0.0
    cube = totals.get("engine.scenario.scenario_evaluate")
    cells = cube.count / passes if cube else 0.0
    metrics["engine.scenario.cells"] = cells
    metrics["engine.scenario.ns_per_cell"] = (
        cube.inclusive_ns / passes / cells if cube and cells else 0.0
    )
    from repro.experiments.registry import experiment_keys

    for key in experiment_keys():
        entry = totals.get(f"experiments.{key}")
        metrics[f"experiments.{key}.ms"] = entry.inclusive_ns / ns if entry else 0.0
    metrics["trace.total_ms"] = recorder.root_total_ns() / ns
    root = totals.get(ROOT_LAYER)
    metrics["trace.other_ms"] = root.self_ns / ns if root else 0.0
    return metrics


def layer_table(recorder: SpanRecorder, passes: int) -> List[str]:
    """Printable per-layer table: calls, inclusive, self and share."""
    totals = recorder.layer_totals()
    grand = sum(entry.self_ns for entry in totals.values()) or 1
    rows = sorted(totals.items(), key=lambda item: -item[1].self_ns)
    lines = [
        f"{'layer':40s} {'calls/pass':>11s} {'incl ms':>9s} "
        f"{'self ms':>9s} {'share %':>8s}"
    ]
    for layer, entry in rows:
        lines.append(
            f"{layer:40s} {entry.calls / passes:11.1f} "
            f"{entry.inclusive_ns / 1e6 / passes:9.3f} "
            f"{entry.self_ns / 1e6 / passes:9.3f} "
            f"{100.0 * entry.self_ns / grand:8.2f}"
        )
    lines.append(
        f"{'total (self times incl. other)':40s} {'':11s} {'':9s} "
        f"{grand / 1e6 / passes:9.3f} {100.0:8.2f}"
    )
    return lines


def _cold_code(workload: Workload, seed: int, first_pass: bool) -> str:
    """Script for a fresh interpreter: ``prepare``, then ``ready``; with
    ``first_pass``, also time one pass at once and print ``first_pass
    <pass ms> <probe ms>`` (the probe timed just after the pass)."""
    code = (
        "import sys, time; sys.path[:0] = [{src!r}, {root!r}]; "
        "from perfbench import {module} as w; s = w.prepare({seed}); "
        "print('ready', flush=True)"
    )
    if first_pass:
        code += (
            "; t = time.perf_counter(); w.run_pass(s, 0, None); "
            "t = (time.perf_counter() - t) * 1e3; "
            "print('first_pass', t, w.PROBE.ms(), flush=True)"
        )
    return code.format(
        src=str(common.SRC),
        root=str(common.ROOT),
        module=workload.__name__.rsplit(".", 1)[-1],
        seed=seed,
    )


def run(workload: Workload, settings: Settings) -> common.Result:
    result = common.Result(layers=LAYERS)
    if not settings.trace:
        code = _cold_code(workload, settings.seed, first_pass=False)
        raw, scaled_starts = common.scaled_cold_starts(
            lambda: common.cold_start(code)[0], COLD_STARTS, workload.PROBE
        )
        result.metrics["setup_s"] = common.median(scaled_starts)
        result.facts["cold_starts_s"] = [round(s, 4) for s in raw]
    else:
        # The passes below run warm, in one process; the first pass of a
        # fresh interpreter shows what a one-shot job pays on top.
        code = _cold_code(workload, settings.seed, first_pass=True)
        _, line = common.cold_start(code, then="first_pass")
        pass_ms, probe = (float(v) for v in line.split()[1:3])
        result.metrics["cold.first_pass_ms"] = workload.PROBE.scaled(
            pass_ms, probe
        )
        result.facts["cold_first_pass_raw_ms"] = round(pass_ms, 3)

    state = workload.prepare(settings.seed)
    hygiene = common.Hygiene()
    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    probes: List[float] = []
    times: Dict[bool, List[float]] = {False: [], True: []}
    scaled: Dict[bool, List[float]] = {False: [], True: []}
    cache = {"hits": 0.0, "misses": 0.0}

    def isolated_probe(index: int) -> float:
        problems = hygiene.problems()
        if problems:
            result.fail(f"pass {index}: probe not isolated: {problems}")
        probes.append(workload.PROBE.ms())
        return probes[-1]

    def checked_pass(index: int, traced: bool) -> Optional[float]:
        """Run, time and check one pass; its milliseconds, or None if it
        raised. Every pass counts as attempted."""
        result.attempted += 1
        try:
            if traced:
                install_wrappers(patcher)
                mark = _cache_counts()
            start = time.perf_counter()
            try:
                if traced:
                    with recorder.span(ROOT_LAYER):
                        outputs = workload.run_pass(state, index, recorder)
                else:
                    outputs = workload.run_pass(state, index, None)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            finally:
                patcher.restore()
            if traced:
                for kind, value in _cache_counts().items():
                    cache[kind] += value - mark[kind]
            if index and settings.corrupt is not None:
                outputs = settings.corrupt(outputs)
            problems = workload.check(state, index, outputs)
        except Exception as error:  # a failing pass is a measured outcome
            result.fail(f"pass {index}: {type(error).__name__}: {error}")
            return None
        for problem in problems:
            result.fail(f"pass {index}: {problem}")
        return elapsed_ms

    checked_pass(0, traced=False)  # warm-up: checked, not timed
    index = 0
    before = isolated_probe(1)
    deadline = time.perf_counter() + settings.seconds
    while True:
        index += 1
        traced = settings.trace and index % 2 == 0
        elapsed_ms = checked_pass(index, traced)
        # The host speed for this pass: the probes just before and just
        # after it (the latter also serves the next pass).
        after = isolated_probe(index + 1)
        if elapsed_ms is not None:
            times[traced].append(elapsed_ms)
            scaled[traced].append(
                workload.PROBE.scaled(elapsed_ms, (before + after) / 2)
            )
        before = after
        if time.perf_counter() >= deadline:
            if times[False] and (times[True] or not settings.trace):
                break
            if index >= 10:
                raise RuntimeError(f"passes keep failing: {result.errors[:3]}")

    result.facts.update(common.host_facts(workload.PROBE, probes))
    result.facts["passes"] = {
        "untraced": len(times[False]),
        "traced": len(times[True]),
    }
    result.metrics["host.probe_ms"] = common.median(probes)
    result.metrics["host.raw_pass_p50_ms"] = common.median(times[False])
    result.metrics["host.nproc"] = float(result.facts["nproc"])  # type: ignore[arg-type]
    if settings.trace:
        passes = len(times[True])
        result.metrics.update(layer_metrics(recorder, passes))
        result.metrics["trace.overhead_pct"] = 100.0 * (
            common.median(scaled[True]) / common.median(scaled[False]) - 1.0
        )
        lookups = cache["hits"] + cache["misses"]
        result.metrics["engine.invariant_cache.hit_ratio"] = (
            cache["hits"] / lookups if lookups else 0.0
        )
        result.facts["layers"] = layer_table(recorder, passes)
    else:
        result.metrics["p50_ms"] = common.median(scaled[False])
        result.facts["p90_ms"] = common.quantile(scaled[False], 0.9)
        result.metrics["peak_rss_mb"] = common.vm_hwm_mb()
        result.facts["raw_pass_p50_ms"] = common.median(times[False])
    return result
