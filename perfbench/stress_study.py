"""``stress_study`` workload: the 29-scenario Monte Carlo stress study.

One pass is what ``ttm-cas mc --scenarios all`` computes, for three
designs at once: ``run_scenario_study`` over ``stress_scenarios("all")``
x {A11 @ 7nm, Zen 2, Zen 2 monolithic @ 7nm} x 4096 samples, with the
nominal market, the nominal ``CostModel`` and the default serial
executor. The timed passes draw with their own seeds, derived from the
workload seed before the first pass, except those run with the
reference seed (below).

The warm-up pass and every :data:`REFERENCE_EVERY`-th timed pass use
:data:`REFERENCE_SEED` and must match the stored reference
(``reference/stress_study.json``) at 1e-9 relative, so a reordered sum
is not a failure; every other pass must differ from it (its seed was
used). Every pass must have the full (scenario x design x metric) shape
with finite, ordered summaries. A program that returned a stale result
from an earlier pass would fail on the next pass of the other kind.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from . import common
from .tracing import SpanRecorder

NAME = "stress_study"
#: The summaries are NumPy percentiles over 4096-sample rows.
PROBE = common.Probe(("int", "numpy"))
SAMPLES = 4096
N_CHIPS = 1e7
REFERENCE_SEED = 20230617
#: Passes 0, REFERENCE_EVERY, 2 * REFERENCE_EVERY, ... use REFERENCE_SEED.
REFERENCE_EVERY = 4
REFERENCE_PATH = common.ROOT / "perfbench" / "reference" / "stress_study.json"
#: Pass seeds drawn up front; passes beyond this many reuse them in turn.
SEED_POOL = 4096
METRICS = ("ttm_weeks", "cas", "cost_per_chip_usd")


@dataclass
class State:
    model: Any
    designs: Tuple[Any, ...]
    spec: Any
    scenarios: Any
    cost_model: Any
    seeds: Tuple[int, ...]
    #: ``repro.montecarlo``; the pass looks the study function up on it
    #: at call time, as a caller of the public API does.
    montecarlo: Any
    to_jsonable: Any
    #: The stored reference, loaded on first use (not part of set-up).
    reference: Optional[Any] = None


def prepare(seed: int) -> State:
    """Import the program and build the study inputs."""
    import repro.montecarlo as montecarlo
    from repro.analysis.export import to_jsonable
    from repro.cost.model import CostModel
    from repro.design.library import a11, zen2, zen2_monolithic
    from repro.market import scenarios
    from repro.ttm.model import TTMModel

    nominal = TTMModel.nominal()
    model = nominal.with_foundry(
        nominal.foundry.with_conditions(scenarios.by_name("nominal"))
    )
    rng = random.Random(seed)
    return State(
        model=model,
        designs=(a11("7nm"), zen2(), zen2_monolithic("7nm")),
        spec=montecarlo.default_supply_spec(n_chips=N_CHIPS),
        scenarios=montecarlo.stress_scenarios(("all",)),
        cost_model=CostModel.nominal(),
        seeds=tuple(rng.getrandbits(32) for _ in range(SEED_POOL)),
        montecarlo=montecarlo,
        to_jsonable=to_jsonable,
    )


def pass_seed(state: State, index: int) -> int:
    if index % REFERENCE_EVERY == 0:
        return REFERENCE_SEED
    return state.seeds[index % len(state.seeds)]


def run_pass(state: State, index: int, recorder: Optional[SpanRecorder]) -> Any:
    return state.montecarlo.run_scenario_study(
        state.model,
        state.designs,
        state.spec,
        state.scenarios,
        n_samples=SAMPLES,
        seed=pass_seed(state, index),
        cost_model=state.cost_model,
    )


def write_reference() -> None:
    """Store the reference pass's output (after an intended change)."""
    state = prepare(0)
    data = state.to_jsonable(run_pass(state, 0, None))
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(
        json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def _shape_problems(state: State, result: Any) -> List[str]:
    problems = []
    if tuple(result.scenarios) != tuple(state.scenarios.names):
        problems.append("scenario list differs from the stress library")
    names = tuple(design.name for design in state.designs)
    if tuple(result.designs) != names:
        problems.append(f"designs {result.designs} != {names}")
    for scenario in result.scenarios:
        for design in names:
            cell = result.cell(scenario, design)
            for metric in METRICS:
                summary = cell.summaries.get(metric)
                if summary is None or summary.n_samples != SAMPLES:
                    problems.append(f"{scenario}/{design}/{metric}: missing")
                    continue
                values = [summary.mean, summary.var, summary.cvar]
                values += list(summary.percentiles.values())
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{scenario}/{design}/{metric}: not finite")
                ladder = [summary.percentiles[q] for q in sorted(summary.percentiles)]
                if ladder != sorted(ladder):
                    problems.append(
                        f"{scenario}/{design}/{metric}: percentiles unordered"
                    )
                if len(problems) >= 5:
                    return problems
    return problems


def check(state: State, index: int, result: Any) -> List[str]:
    problems = _shape_problems(state, result)
    if problems:
        return problems
    if state.reference is None:
        state.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    actual = state.to_jsonable(result)
    if pass_seed(state, index) == REFERENCE_SEED:
        return common.mismatches(actual, state.reference, "reference")
    # Another seed: no cell may repeat the reference seed's summaries.
    for scenario, per_design in state.reference["results"].items():
        for design, cell in per_design.items():
            summaries = actual["results"][scenario][design]["summaries"]
            if not common.mismatches(summaries, cell["summaries"], limit=1):
                problems.append(
                    f"{scenario}/{design}: summaries equal the reference "
                    "seed's (pass seed ignored)"
                )
                if len(problems) >= 5:
                    return problems
    return problems


if __name__ == "__main__":
    # PYTHONPATH=src:. python3 -m perfbench.stress_study
    write_reference()
