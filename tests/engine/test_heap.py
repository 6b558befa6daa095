"""The engine's process heap policy (:mod:`repro.engine._heap`).

Loading the engine pins glibc's mmap and trim thresholds, so the
temporaries one evaluation frees stay mapped for the next: a warm
stress-sized ``evaluate`` takes (almost) no minor page faults. Under
glibc's dynamic thresholds the same call re-faulted ≈1,800 pages. Where
the C library is not glibc the helper does nothing.
"""

from __future__ import annotations

import ctypes
import json
import os

import pytest

from repro.engine import _heap

GLIBC = _heap._is_glibc()

#: Minor faults one warm repeat may take.
FAULT_LIMIT = 100


@pytest.mark.skipif(not GLIBC, reason="the heap policy is glibc only")
def test_glibc_accepts_both_thresholds():
    assert _heap.pin_thresholds()


#: Two warm-up calls, then three timed repeats, of a stress-study chunk's
#: ``evaluate``: the first 8 stress scenarios x {A11 @ 7nm, Zen 2, Zen 2
#: monolithic @ 7nm} x 4,096 samples; prints each repeat's minor faults.
WARM_EVALUATE = """
import json, resource
import numpy as np
from repro.cost.model import CostModel
from repro.design.library import a11, zen2, zen2_monolithic
from repro.engine import evaluate
from repro.montecarlo import default_supply_spec, stress_scenarios
from repro.ttm.model import TTMModel

model = TTMModel.nominal()
designs = (a11("7nm"), zen2(), zen2_monolithic("7nm"))
draws = default_supply_spec(n_chips=1e7).sample(4096, np.random.default_rng(0))
scenarios = stress_scenarios("all").subset(range(8))

def call():
    evaluate(
        model, designs, draws.n_chips, ("ttm", "cas", "cost"),
        scenarios=scenarios, cost_model=CostModel.nominal(),
        **draws.kernel_kwargs(),
    )

call(); call()
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not GLIBC, reason="the heap policy is glibc only")
def test_warm_stress_evaluate_takes_no_page_faults(fresh_python):
    # A fresh interpreter: the policy must come from loading the engine,
    # not from a test that pinned it in this process.
    faults = json.loads(fresh_python(WARM_EVALUATE))
    assert max(faults) < FAULT_LIMIT, faults


def _unknown_name(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize(
    "confstr",
    [lambda name: "musl 1.2", lambda name: None, _unknown_name, None],
    ids=["other-libc", "unset", "unknown-name", "no-confstr"],
)
def test_other_c_libraries_are_left_alone(monkeypatch, confstr):
    def no_dlopen(*args, **kwargs):
        raise AssertionError("the helper loaded a C library")

    if confstr is None:
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", no_dlopen)
    assert not _heap.pin_thresholds()
