"""EXPERIMENTS.md's headline rows, pinned at the precision it states.

The "Headline claims" table in EXPERIMENTS.md quotes a measured delta
next to each paper claim. These tests recompute every quoted delta from
the default experiment runs (what ``ttm-cas run`` prints) and round it
the way the document does, so the document and the number cannot drift
apart silently.
"""

import pytest

from repro.experiments import (
    fig10_a11_matrix,
    fig12_queue_cas,
    fig13_chiplets,
    fig14_multiprocess,
)


def percent(fraction, digits=0):
    """``fraction`` in percent, rounded as EXPERIMENTS.md writes it."""
    return round(100.0 * fraction, digits)


@pytest.mark.parametrize("node, stated", [("7nm", 69), ("5nm", 119)])
def test_fig10_advanced_nodes_vs_28nm_at_10m_chips(node, stated):
    result = fig10_a11_matrix.run()
    delta = result.ttm[(node, 1e7)] / result.ttm[("28nm", 1e7)] - 1.0
    assert percent(delta) == stated


@pytest.mark.parametrize(
    "variant, stated", [("7nm chiplet", 25), ("7nm monolithic", 38)]
)
def test_fig13_mixed_process_agility_gains(variant, stated):
    gains = fig13_chiplets.agility_gains(fig13_chiplets.run())
    assert percent(gains[variant]) == stated


@pytest.mark.parametrize(
    "key, digits, stated",
    [
        ("agility_gain", 0, 67),
        ("ttm_gain_vs_cheapest", 1, 12.7),
        ("cost_increase", 1, 1.5),
    ],
)
def test_fig14_split_headline(key, digits, stated):
    headline = fig14_multiprocess.run().headline
    assert percent(headline[key], digits) == stated


def test_fig12_one_week_queue_drop():
    assert percent(fig12_queue_cas.run().one_week_drop()) == 89
