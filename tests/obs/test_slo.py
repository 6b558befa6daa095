"""SLO objectives, sliding-window burn rates, and gauge publication."""

from __future__ import annotations

import pytest

from repro.obs.metrics import get_registry
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLObjective,
    SLOTracker,
    _tally,
    report_from_records,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def make_tracker(window_s=60.0):
    clock = FakeClock()
    tracker = SLOTracker(
        objectives=(
            SLObjective(
                "evaluate",
                latency_ms=100.0,
                latency_objective=0.9,
                error_objective=0.1,
            ),
        ),
        window_s=window_s,
        clock=clock,
    )
    return tracker, clock


class TestSLObjective:
    def test_validation(self):
        with pytest.raises(ValueError, match="latency_ms"):
            SLObjective("e", latency_ms=0.0)
        with pytest.raises(ValueError, match="latency_objective"):
            SLObjective("e", latency_ms=1.0, latency_objective=1.0)
        with pytest.raises(ValueError, match="error_objective"):
            SLObjective("e", latency_ms=1.0, error_objective=0.0)

    def test_defaults_cover_every_batched_endpoint(self):
        endpoints = {o.endpoint for o in DEFAULT_OBJECTIVES}
        assert endpoints == {"evaluate", "mc", "splits", "scenarios"}


class TestSLOTracker:
    def test_all_good_traffic_has_zero_burn(self):
        tracker, _ = make_tracker()
        for _ in range(10):
            tracker.observe("evaluate", 200, 0.01)
        entry = tracker.status()["evaluate"]
        assert entry["requests"] == 10
        assert entry["error_burn_rate"] == 0.0
        assert entry["latency_burn_rate"] == 0.0
        assert entry["ok"]

    def test_error_burn_rate_is_bad_fraction_over_budget(self):
        tracker, _ = make_tracker()
        # 2 errors in 10 with a 10% budget: burn rate exactly 2.0.
        for i in range(10):
            tracker.observe("evaluate", 500 if i < 2 else 200, 0.01)
        entry = tracker.status()["evaluate"]
        assert entry["errors"] == 2
        assert entry["error_burn_rate"] == pytest.approx(2.0)
        assert not entry["ok"]

    def test_latency_burn_counts_slow_requests(self):
        tracker, _ = make_tracker()
        # 3 slow in 10 against a 10% slow budget: burn rate 3.0.
        for i in range(10):
            tracker.observe("evaluate", 200, 0.5 if i < 3 else 0.01)
        entry = tracker.status()["evaluate"]
        assert entry["slow"] == 3
        assert entry["latency_burn_rate"] == pytest.approx(3.0)
        assert not entry["ok"]

    def test_4xx_does_not_burn_error_budget(self):
        tracker, _ = make_tracker()
        tracker.observe("evaluate", 400, 0.01)
        tracker.observe("evaluate", 429, 0.01)
        entry = tracker.status()["evaluate"]
        assert entry["errors"] == 0
        assert entry["ok"]

    def test_a_slow_408_is_neither_an_error_nor_slow(self):
        # A client that stalls mid-request is answered 408 at the read
        # limit, 10 s in: the caller's fault, so it burns no budget.
        objectives = {o.endpoint: o for o in DEFAULT_OBJECTIVES}
        entry = _tally([("evaluate", 408, 10_000.0)], objectives, 60.0)
        assert entry["evaluate"]["errors"] == 0
        assert entry["evaluate"]["slow"] == 0
        assert entry["evaluate"]["ok"]

    def test_window_slides_old_events_out(self):
        tracker, clock = make_tracker(window_s=60.0)
        tracker.observe("evaluate", 500, 0.01)
        clock.now += 61.0
        tracker.observe("evaluate", 200, 0.01)
        entry = tracker.status()["evaluate"]
        assert entry["requests"] == 1
        assert entry["errors"] == 0

    def test_unknown_endpoint_uses_fallback_objective(self):
        tracker, _ = make_tracker()
        tracker.observe("mystery", 200, 0.01)
        assert "mystery" in tracker.status()

    def test_publish_refreshes_gauges(self):
        tracker, _ = make_tracker()
        for i in range(10):
            tracker.observe("evaluate", 500 if i < 2 else 200, 0.01)
        tracker.publish()
        registry = get_registry()
        assert registry.gauge("serve_slo_error_burn_rate").value(
            endpoint="evaluate"
        ) == pytest.approx(2.0)
        assert (
            registry.gauge("serve_slo_ok").value(endpoint="evaluate") == 0.0
        )


class TestOfflineReport:
    def make_records(self):
        return [
            {
                "ts_unix_ns": i * 1_000_000_000,
                "endpoint": "evaluate",
                "status": 500 if i == 0 else 200,
                "latency_ms": 1.0,
            }
            for i in range(10)
        ]

    def test_whole_log_report(self):
        report = report_from_records(self.make_records())
        entry = report["evaluate"]
        assert entry["requests"] == 10
        assert entry["errors"] == 1

    def test_window_restricts_to_trailing_records(self):
        # Window of 5 s ending at the newest record (t=9 s) keeps
        # t in [4, 9] — six records, none of them the t=0 error.
        report = report_from_records(self.make_records(), window_s=5.0)
        entry = report["evaluate"]
        assert entry["requests"] == 6
        assert entry["errors"] == 0

    def test_skips_malformed_records(self):
        report = report_from_records(
            [
                {"endpoint": "evaluate", "status": "bogus"},
                {"no_endpoint": True},
                {"endpoint": "evaluate", "status": 200, "latency_ms": None},
            ]
        )
        assert report["evaluate"]["requests"] == 1
