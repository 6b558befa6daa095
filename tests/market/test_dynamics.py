"""Tests for the dynamic foundry-queue simulation."""

import pytest

from repro.errors import InvalidParameterError
from repro.market.dynamics import (
    DemandScript,
    FoundryQueue,
    lead_time_trace,
    order_completion_week,
    simulate,
    summarize,
)


def _queue(capacity=1000.0, latency=12):
    return FoundryQueue(capacity_per_week=capacity, fab_latency_weeks=latency)


class TestQueueMechanics:
    def test_underloaded_line_has_no_backlog(self):
        queue = _queue()
        states = simulate(queue, DemandScript.steady(20, 800.0))
        assert all(state.backlog_wafers == 0.0 for state in states)
        assert all(state.started_wafers == 800.0 for state in states)

    def test_latency_delays_first_completion(self):
        queue = _queue(latency=5)
        states = simulate(queue, DemandScript.steady(10, 500.0))
        assert all(s.completed_wafers == 0.0 for s in states[:5])
        assert states[5].completed_wafers == 500.0

    def test_overloaded_line_grows_backlog_linearly(self):
        queue = _queue(capacity=1000.0)
        states = simulate(queue, DemandScript.steady(10, 1300.0))
        assert states[-1].backlog_wafers == pytest.approx(10 * 300.0)

    def test_wafer_conservation(self):
        queue = _queue()
        script = (
            DemandScript.steady(80, 900.0)
            .with_demand_surge(20, 15, 2.0)
            .with_capacity_outage(50, 8, 0.4)
        )
        simulate(queue, script)
        assert queue.conservation_error(sum(script.demand)) < 1e-6

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FoundryQueue(capacity_per_week=0.0, fab_latency_weeks=12)
        with pytest.raises(InvalidParameterError):
            FoundryQueue(capacity_per_week=10.0, fab_latency_weeks=0)
        with pytest.raises(InvalidParameterError):
            _queue().step(-1.0)


class TestScripts:
    def test_steady(self):
        script = DemandScript.steady(5, 100.0)
        assert script.demand == (100.0,) * 5
        assert script.capacity_fraction == (1.0,) * 5

    def test_surge_window(self):
        script = DemandScript.steady(10, 100.0).with_demand_surge(3, 2, 2.0)
        assert script.demand[2] == 100.0
        assert script.demand[3] == 200.0
        assert script.demand[4] == 200.0
        assert script.demand[5] == 100.0

    def test_outage_window(self):
        script = DemandScript.steady(10, 100.0).with_capacity_outage(4, 3, 0.5)
        assert script.capacity_fraction[3] == 1.0
        assert script.capacity_fraction[4] == 0.5
        assert script.capacity_fraction[6] == 0.5
        assert script.capacity_fraction[7] == 1.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DemandScript(demand=())
        with pytest.raises(InvalidParameterError):
            DemandScript(demand=(1.0,), capacity_fraction=(1.0, 1.0))


class TestEq4Agreement:
    """The static Eq. 4 abstraction must match the explicit queue."""

    def test_steady_state_lead_time_matches_eq4(self):
        # Demand 1300/wk into a 1000/wk line for 10 weeks leaves a
        # 3000-wafer backlog; Eq. 4 quotes 3000/1000 = 3 weeks.
        states = simulate(_queue(), DemandScript.steady(10, 1300.0))
        assert states[-1].quoted_lead_time_weeks == pytest.approx(3.0)

    def test_lead_time_trace_shapes_like_a_shortage(self):
        script = DemandScript.steady(60, 950.0).with_demand_surge(10, 20, 1.4)
        trace = lead_time_trace(1000.0, 12, script)
        assert max(trace) > trace[0]
        # After the surge the backlog drains and quotes recover.
        assert trace[-1] < max(trace)

    def test_surge_and_outage_each_spike_the_quote(self):
        script = (
            DemandScript.steady(156, 55_000.0)
            .with_demand_surge(20, 40, 1.3)
            .with_capacity_outage(90, 10, 0.5)
        )
        trace = lead_time_trace(58_000.0, 18, script)
        assert max(trace[20:60]) > trace[0] + 1.0
        assert max(trace[90:100]) > trace[89] + 1.0

    def test_probe_order_completion(self):
        queue = _queue(latency=12)
        script = DemandScript.steady(40, 1200.0)
        states = simulate(queue, script)
        # Order 500 wafers at week index 10 (backlog 2000 there).
        done = order_completion_week(states, 10, 500.0, 1000.0, 12)
        # Backlog + order = 2500 started over subsequent weeks; each week
        # only 1000 - 1200 new... the line is saturated so starts = 1000:
        # wait ~2.5 weeks of starts wouldn't clear with new FIFO arrivals,
        # but our drain model charges only the backlog ahead + the order:
        # ceil(2500/1000) = 3 weeks -> completes week 14+12.
        assert done is not None
        assert done >= states[10].week + 12

    def test_probe_order_validation(self):
        states = simulate(_queue(), DemandScript.steady(5, 100.0))
        with pytest.raises(InvalidParameterError):
            order_completion_week(states, 99, 10.0, 1000.0, 12)
        with pytest.raises(InvalidParameterError):
            order_completion_week(states, 1, 0.0, 1000.0, 12)

    def test_unfinished_order_returns_none(self):
        states = simulate(_queue(), DemandScript.steady(5, 2000.0))
        assert order_completion_week(states, 4, 1e9, 1000.0, 12) is None


class TestSummarize:
    def test_headline_fields(self):
        states = simulate(_queue(), DemandScript.steady(20, 1100.0))
        summary = summarize(states)
        assert summary["weeks"] == 20.0
        assert summary["peak_backlog_wafers"] == pytest.approx(2000.0)
        assert 0.9 < summary["utilization"] <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            summarize([])


class TestTTMIntegration:
    def test_simulated_quote_feeds_the_static_model(self, model):
        """End-to-end: a simulated shortage's quote becomes the static
        model's queue_weeks and lengthens TTM accordingly."""
        from repro.design.library.a11 import a11

        rate = model.foundry.technology["7nm"].max_wafer_rate_per_week
        script = DemandScript.steady(30, rate * 1.1)
        trace = lead_time_trace(rate, 18, script)
        quote = trace[-1]
        assert quote > 1.0

        conditions = model.foundry.conditions.with_queue("7nm", quote)
        queued = model.with_foundry(model.foundry.with_conditions(conditions))
        base_weeks = model.total_weeks(a11("7nm"), 10e6)
        assert queued.total_weeks(a11("7nm"), 10e6) == pytest.approx(
            base_weeks + quote, rel=0.01
        )
