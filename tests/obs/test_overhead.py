"""The instrumentation bound: hooks cost at most 2 % of a pass's CPU.

With no tracer installed, every ``observed_kernel`` call adds its
wrapper's cost to the kernel it wraps. The CPU a pass spends in hooks is
(hooks fired) x (cost of one hook). The hook count is exact, read from
``KERNEL_INVOCATIONS``; the cost of one hook is the wrapper's CPU minus
that of the function it wraps (``__wrapped__``), over many calls. Both
factors are stable where a direct instrumented-versus-bare timing of a
≈50 ms pass is not, so the bound holds on any host, coverage-traced or
not. The two passes are the figures pass (``ttm-cas run all``) and the
stress study (``ttm-cas mc --scenarios all`` over three designs).
"""

import time

import numpy as np
import pytest

from repro.cost.model import CostModel
from repro.design.library import a11, zen2, zen2_monolithic
from repro.experiments import registry
from repro.market import scenarios
from repro.montecarlo import (
    default_supply_spec,
    run_scenario_study,
    stress_scenarios,
)
from repro.obs.instrument import KERNEL_INVOCATIONS, observed_kernel
from repro.ttm.model import TTMModel

BOUND = 0.02
PROBE_CALLS = 100_000
REPEATS = 5
TIMED_PASSES = 3

_PAYLOAD = np.zeros(4)


@observed_kernel("obs.overhead_probe", lambda result: result.size)
def probe():
    return _PAYLOAD


def loop_seconds(function):
    start = time.process_time()
    for _ in range(PROBE_CALLS):
        function()
    return time.process_time() - start


@pytest.fixture(scope="module")
def hook_seconds():
    """CPU one hook adds to a kernel call (best-of loops, per call)."""
    wrapped = min(loop_seconds(probe) for _ in range(REPEATS))
    bare = min(loop_seconds(probe.__wrapped__) for _ in range(REPEATS))
    return (wrapped - bare) / PROBE_CALLS


def kernel_calls():
    return {
        dict(key)["kernel"]: count
        for key, count in KERNEL_INVOCATIONS.series().items()
    }


def hooks_and_cpu(run_pass):
    """Hooks fired per warm pass, by kernel, and the least pass CPU."""
    run_pass()  # imports, the default database and compile caches
    before = kernel_calls()
    cpu = []
    for _ in range(TIMED_PASSES):
        start = time.process_time()
        run_pass()
        cpu.append(time.process_time() - start)
    fired = {
        kernel: (count - before.get(kernel, 0.0)) / TIMED_PASSES
        for kernel, count in kernel_calls().items()
        if count != before.get(kernel, 0.0)
    }
    return fired, min(cpu)


def figures_pass():
    for experiment in registry.EXPERIMENTS.values():
        experiment.run().table()


@pytest.fixture(scope="module")
def stress_pass():
    nominal = TTMModel.nominal()
    model = nominal.with_foundry(
        nominal.foundry.with_conditions(scenarios.by_name("nominal"))
    )
    designs = (a11("7nm"), zen2(), zen2_monolithic("7nm"))
    spec = default_supply_spec(n_chips=1e7)
    stress = stress_scenarios(("all",))
    cost_model = CostModel.nominal()

    def run_pass():
        run_scenario_study(
            model,
            designs,
            spec,
            stress,
            n_samples=4096,
            seed=20230617,
            cost_model=cost_model,
        )

    return run_pass


def test_hook_cost_is_measurable(hook_seconds):
    # A probe that reads no cost would make the bounds below vacuous.
    assert hook_seconds > 0.0


def test_figures_pass_within_bound(hook_seconds):
    fired, cpu = hooks_and_cpu(figures_pass)
    assert fired == {
        "engine.compile_portfolio": 16,
        "engine.evaluate": 16,
        "engine.batch_split": 1,
    }
    assert sum(fired.values()) * hook_seconds / cpu <= BOUND


def test_stress_pass_within_bound(stress_pass, hook_seconds):
    fired, cpu = hooks_and_cpu(stress_pass)
    assert fired == {"engine.compile_portfolio": 4, "engine.evaluate": 4}
    assert sum(fired.values()) * hook_seconds / cpu <= BOUND
