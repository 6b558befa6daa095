"""Five names kept only for the benchmark's traced run.

``perfbench/inprocess.py`` looks up and wraps ``batch_ttm``,
``batch_cas``, ``batch_cost``, ``ttm_over_capacity`` and
``cas_over_capacity`` by name, and stops if one is missing; nothing in
``repro`` calls them. Each forwards to
:func:`~repro.engine.scenario.evaluate` on a one-design portfolio. They
go once the benchmark wraps ``evaluate`` instead.
"""

from __future__ import annotations

from ..ttm.model import TTMModel
from .scenario import evaluate


def batch_ttm(model, design, n_chips, **knobs):
    """Kept for the benchmark's traced run: one design's TTM."""
    return evaluate(model, (design,), n_chips, ("ttm",), **knobs)


def batch_cas(model, design, n_chips, **knobs):
    """Kept for the benchmark's traced run: one design's CAS."""
    return evaluate(model, (design,), n_chips, ("cas",), **knobs)


def batch_cost(cost_model, design, n_chips, **knobs):
    """Kept for the benchmark's traced run: one design's cost."""
    return evaluate(
        TTMModel.nominal(), (design,), n_chips, ("cost",),
        cost_model=cost_model, **knobs,
    )


def ttm_over_capacity(model, design, n_chips, fractions):
    """Kept for the benchmark's traced run: TTM over a capacity sweep."""
    return evaluate(model, (design,), n_chips, ("ttm",), capacity=fractions)


def cas_over_capacity(model, design, n_chips, fractions):
    """Kept for the benchmark's traced run: CAS over a capacity sweep."""
    return evaluate(model, (design,), n_chips, ("cas",), capacity=fractions)
