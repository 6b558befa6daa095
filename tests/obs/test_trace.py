"""Tests for the span tracer and its exports."""

import json

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA,
    SpanRecord,
    Tracer,
    chrome_trace_from_spans,
    current_tracer,
    install_tracer,
    span,
    summarize_spans,
    uninstall_tracer,
)


class TestSpans:
    def test_records_name_timing_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", shape=(3, 4)) as active:
            active.set("elements", 12)
        (record,) = tracer.spans()
        assert record.name == "work"
        assert record.attributes == {"shape": (3, 4), "elements": 12}
        assert record.duration_ns >= 0
        assert record.cpu_ns >= 0
        assert record.status == "ok"
        assert record.end_unix_ns == record.start_unix_ns + record.duration_ns

    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, recorded_outer = tracer.spans()
        assert recorded_outer.span_id == outer.span_id
        assert recorded_outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("detached", parent_id=None):
                pass
            with tracer.span("attached", parent_id=root.span_id):
                pass
        detached, attached, _ = tracer.spans()
        assert detached.parent_id is None
        assert attached.parent_id == root.span_id

    def test_exception_marks_status_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert record.status == "error: ValueError"

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span_id() is None
        with tracer.span("a") as a:
            assert tracer.current_span_id() == a.span_id
        assert tracer.current_span_id() is None

    def test_adopt_merges_foreign_records(self):
        tracer, worker = Tracer(), Tracer()
        with worker.span("remote"):
            pass
        tracer.adopt(worker.spans())
        assert [record.name for record in tracer.spans()] == ["remote"]

    def test_clear_drops_spans(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.clear()
        assert tracer.spans() == ()


class TestRollingWindow:
    def test_limit_drops_oldest_finished_spans(self):
        tracer = Tracer(limit=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [record.name for record in tracer.spans()] == [
            "s2", "s3", "s4",
        ]

    def test_limit_applies_to_adopted_spans_too(self):
        tracer, remote = Tracer(limit=2), Tracer()
        for i in range(4):
            with remote.span(f"r{i}"):
                pass
        tracer.adopt(remote.spans())
        assert [record.name for record in tracer.spans()] == ["r2", "r3"]

    def test_unlimited_by_default(self):
        tracer = Tracer()
        for i in range(100):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 100

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError, match="limit"):
            Tracer(limit=0)


class TestProcessLanes:
    def _span_dict(self, pid, name="work", **attributes):
        return SpanRecord(
            name=name,
            span_id=f"{pid:x}-1",
            parent_id=None,
            start_unix_ns=0,
            duration_ns=1,
            cpu_ns=0,
            thread_id=1,
            process_id=pid,
            attributes=attributes,
        ).to_jsonable()

    def _lanes(self, chrome):
        """{pid: (label, sort_index)} from the metadata events."""
        labels = {
            e["pid"]: e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        order = {
            e["pid"]: e["args"]["sort_index"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_sort_index"
        }
        return {pid: (labels[pid], order[pid]) for pid in labels}

    def test_each_pid_gets_a_named_lane(self):
        chrome = chrome_trace_from_spans(
            [self._span_dict(10), self._span_dict(20)],
            process_names={10: "router", 20: "worker 0"},
        )
        lanes = self._lanes(chrome)
        assert lanes[10] == ("router", 0)
        assert lanes[20] == ("worker 0", 1)

    def test_router_lane_sorts_first_regardless_of_pid(self):
        # The router's pid is numerically larger; its lane still leads.
        chrome = chrome_trace_from_spans(
            [self._span_dict(99), self._span_dict(5)],
            process_names={99: "router", 5: "worker 1"},
        )
        lanes = self._lanes(chrome)
        assert lanes[99][1] < lanes[5][1]

    def test_worker_attribute_names_unmapped_pids(self):
        chrome = chrome_trace_from_spans([self._span_dict(30, worker=2)])
        assert self._lanes(chrome)[30][0] == "worker 2"

    def test_anonymous_pid_falls_back_to_pid_label(self):
        chrome = chrome_trace_from_spans([self._span_dict(42)])
        assert self._lanes(chrome)[42][0] == "pid 42"


class TestExports:
    def make_tracer(self):
        tracer = Tracer()
        with tracer.span("outer", n=2):
            with tracer.span("inner"):
                pass
        return tracer

    def test_jsonable_export_is_schema_tagged(self):
        data = self.make_tracer().to_jsonable()
        assert data["schema"] == TRACE_SCHEMA
        assert [entry["name"] for entry in data["spans"]] == [
            "inner", "outer",
        ]

    def test_chrome_trace_events(self):
        chrome = self.make_tracer().to_chrome_trace()
        events = chrome["traceEvents"]
        # Complete events plus one process-lane metadata pair.
        assert {event["ph"] for event in events} == {"M", "X"}
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"]["n"] == 2
        assert outer["dur"] > 0

    def test_write_round_trips_as_json(self, tmp_path):
        tracer = self.make_tracer()
        trace_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "chrome.json"
        tracer.write_json(str(trace_path))
        tracer.write_chrome_trace(str(chrome_path))
        assert json.loads(trace_path.read_text())["schema"] == TRACE_SCHEMA
        reloaded = json.loads(chrome_path.read_text())
        complete = [
            e for e in reloaded["traceEvents"] if e["ph"] == "X"
        ]
        assert len(complete) == 2

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("hot"):
                pass
        (entry,) = summarize_spans(
            record.to_jsonable() for record in tracer.spans()
        )
        assert entry["name"] == "hot"
        assert entry["count"] == 3
        assert entry["max_wall_ns"] <= entry["wall_ns"]


class TestModuleHelper:
    def test_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        context = span("anything", detail=1)
        assert context is NULL_SPAN
        with context as active:
            active.set("ignored", True)  # must not raise

    def test_install_routes_module_spans(self):
        tracer = install_tracer()
        assert current_tracer() is tracer
        with span("routed"):
            pass
        assert [record.name for record in tracer.spans()] == ["routed"]
        assert uninstall_tracer() is tracer
        assert current_tracer() is None
