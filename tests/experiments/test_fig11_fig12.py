"""Figs. 11 and 12 reproduction checks (queue-time effects)."""

import pytest

from repro.experiments import fig11_queue_ttm, fig12_queue_cas

FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def fig11(model):
    return fig11_queue_ttm.run(model, fractions=FRACTIONS)


@pytest.fixture(scope="module")
def fig12(model):
    return fig12_queue_cas.run(model, fractions=FRACTIONS)


class TestFig11:
    def test_four_queue_levels(self, fig11):
        assert set(fig11.series) == {0.0, 1.0, 2.0, 4.0}

    def test_longer_queue_longer_ttm_everywhere(self, fig11):
        for i in range(len(FRACTIONS)):
            column = [fig11.series[q][i] for q in (0.0, 1.0, 2.0, 4.0)]
            assert column == sorted(column)

    def test_quote_exact_at_full_capacity(self, fig11):
        """At max rate a q-week quote adds exactly q weeks."""
        at_full = fig11.at_full_capacity()
        assert at_full[1.0] - at_full[0.0] == pytest.approx(1.0, abs=0.01)
        assert at_full[2.0] - at_full[0.0] == pytest.approx(2.0, abs=0.01)
        assert at_full[4.0] - at_full[0.0] == pytest.approx(4.0, abs=0.01)

    def test_queue_amplified_at_low_capacity(self, fig11):
        """The same quote costs 4x more weeks at 25% capacity."""
        gap_full = fig11.series[4.0][-1] - fig11.series[0.0][-1]
        gap_low = fig11.series[4.0][0] - fig11.series[0.0][0]
        assert gap_low == pytest.approx(4 * gap_full, rel=0.05)

    def test_table_renders(self, fig11):
        assert "queue" in fig11.table()


class TestFig12:
    def test_queue_reduces_max_cas(self, fig12):
        peaks = fig12.max_cas()
        assert peaks[0.0] > peaks[1.0] > peaks[2.0] > peaks[4.0]

    def test_one_week_drop_is_severe(self, fig12):
        """Paper: 1 week of queue cut the max CAS by ~37%. Our backlog
        model is more punishing (see EXPERIMENTS.md); assert the drop is
        at least paper-sized and strictly below total collapse."""
        drop = fig12.one_week_drop()
        assert 0.3 < drop < 0.95

    def test_curves_fall_with_capacity(self, fig12):
        for series in fig12.series.values():
            assert list(series) == sorted(series)

    def test_table_renders(self, fig12):
        assert "queue" in fig12.table()
