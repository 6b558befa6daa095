"""``figures`` workload: regenerate every paper figure and table.

One pass does what ``ttm-cas run all`` does without writing to the
terminal: each of the registry's experiments is run and rendered to its
table. The outputs of the experiments under golden master
(``tests/golden/snapshots``) must match the snapshots at their 1e-9
relative tolerance; the extension experiments must match the warm-up
pass's outputs. The workload seed plays no part: the experiments carry
their own fixed seeds.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from . import common
from .tracing import SpanRecorder

NAME = "figures"
#: The scalar model is pure-Python float and attribute work.
PROBE = common.Probe(("int", "float"))
GOLDEN_DIR = common.ROOT / "tests" / "golden" / "snapshots"


@dataclass
class State:
    experiments: Tuple[Any, ...]
    golden: Dict[str, Any]
    to_jsonable: Any
    #: Extension outputs of the warm-up pass, compared on later passes.
    baseline: Optional[Dict[str, Any]] = None


def prepare(seed: int) -> State:
    """Import the program and look up the experiment registry."""
    del seed  # every experiment is deterministic with its own seed
    from repro.analysis.export import to_jsonable
    from repro.experiments import registry

    golden = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(GOLDEN_DIR.glob("*.json"))
    }
    experiments = tuple(registry.EXPERIMENTS.values())
    return State(experiments, golden, to_jsonable)


def run_pass(
    state: State, index: int, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    """Run and render every experiment; returns key -> result."""
    outputs = {}
    for experiment in state.experiments:
        with (
            recorder.span(f"experiments.{experiment.key}")
            if recorder is not None
            else nullcontext()
        ):
            result = experiment.run()
            result.table()
        outputs[experiment.key] = result
    return outputs


def check(state: State, index: int, outputs: Dict[str, Any]) -> List[str]:
    problems = []
    jsonable = {key: state.to_jsonable(value) for key, value in outputs.items()}
    missing = set(state.golden) - set(jsonable)
    if missing:
        problems.append(f"golden experiments not run: {sorted(missing)}")
    for key, expected in state.golden.items():
        if key in jsonable:
            problems += common.mismatches(jsonable[key], expected, key)
    extensions = {k: v for k, v in jsonable.items() if k not in state.golden}
    if state.baseline is None:
        state.baseline = extensions
    else:
        problems += common.mismatches(extensions, state.baseline, "extensions")
    return problems
