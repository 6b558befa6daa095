"""Trace correctness under parallel_map concurrency (both executors).

The contract: spans recorded by worker threads must attach to the right
parent (the enclosing ``parallel_map`` span), the Chrome-trace export
must stay valid JSON, and timestamps must be sane (non-negative
durations, items inside the map's wall window).
"""

import json

import numpy as np
import pytest

from repro.engine.parallel import EXECUTORS, parallel_map
from repro.obs.instrument import observed_kernel
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

#: Wall-clock slack for timestamp comparisons (ns): wall starts come
#: from time.time_ns, durations from perf_counter_ns.
CLOCK_TOLERANCE_NS = 50_000_000


def observed_square(value: float) -> float:
    return value * value


@observed_kernel("obs.test_length", lambda result: result.size)
def observed_length(n: int) -> np.ndarray:
    return np.arange(n)


def traced_run(executor: str, n_items: int = 6):
    tracer = install_tracer(Tracer())
    try:
        results = parallel_map(
            observed_square, list(range(n_items)), executor=executor
        )
    finally:
        uninstall_tracer()
    return tracer, results


class TestSpanParentage:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_item_spans_attach_to_the_map_span(self, executor):
        tracer, results = traced_run(executor)
        assert results == [observed_square(i) for i in range(6)]
        spans = tracer.spans()
        (root,) = [s for s in spans if s.name == "parallel_map"]
        items = [s for s in spans if s.name == "parallel_map.item"]
        assert len(items) == 6
        assert all(item.parent_id == root.span_id for item in items)
        assert root.attributes["executor"] == executor
        assert root.attributes["n_items"] == 6

    def test_thread_workers_share_the_map_process(self):
        tracer, _ = traced_run("thread")
        assert len({s.process_id for s in tracer.spans()}) == 1

    def test_seeded_traced_thread_map_stays_deterministic(self):
        def draw(item, rng):
            return float(item + rng.normal())

        baseline = parallel_map(draw, [1.0, 2.0, 3.0], seed=11)
        tracer = install_tracer(Tracer())
        try:
            traced = parallel_map(
                draw, [1.0, 2.0, 3.0], executor="thread", seed=11
            )
        finally:
            uninstall_tracer()
        assert traced == baseline
        items = [
            s for s in tracer.spans() if s.name == "parallel_map.item"
        ]
        assert len(items) == 3


class TestTimestampSanity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_durations_nonnegative_and_items_inside_map_window(
        self, executor
    ):
        tracer, _ = traced_run(executor)
        spans = tracer.spans()
        assert all(s.duration_ns >= 0 for s in spans)
        assert all(s.cpu_ns >= 0 for s in spans)
        (root,) = [s for s in spans if s.name == "parallel_map"]
        for item in spans:
            if item.name != "parallel_map.item":
                continue
            assert item.start_unix_ns >= (
                root.start_unix_ns - CLOCK_TOLERANCE_NS
            )
            assert item.end_unix_ns <= root.end_unix_ns + CLOCK_TOLERANCE_NS

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_same_thread_spans_are_nested_or_disjoint(self, executor):
        # Within one (process, thread) a span either contains another or
        # does not touch it: sibling items on one worker run in sequence.
        # Wall starts come from time.time_ns but durations from
        # perf_counter_ns, so allow a small cross-clock tolerance.
        tolerance_ns = 1_000_000
        tracer, _ = traced_run(executor)
        by_thread = {}
        for record in tracer.spans():
            by_thread.setdefault(
                (record.process_id, record.thread_id), []
            ).append(record)
        for records in by_thread.values():
            for a in records:
                for b in records:
                    if a is b:
                        continue
                    nested = (
                        a.start_unix_ns >= b.start_unix_ns - tolerance_ns
                        and a.end_unix_ns <= b.end_unix_ns + tolerance_ns
                    ) or (
                        b.start_unix_ns >= a.start_unix_ns - tolerance_ns
                        and b.end_unix_ns <= a.end_unix_ns + tolerance_ns
                    )
                    disjoint = (
                        a.end_unix_ns <= b.start_unix_ns + tolerance_ns
                        or b.end_unix_ns <= a.start_unix_ns + tolerance_ns
                    )
                    assert nested or disjoint


class TestChromeExportUnderConcurrency:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_chrome_trace_round_trips_json(self, tmp_path, executor):
        tracer, _ = traced_run(executor)
        path = tmp_path / f"{executor}.json"
        tracer.write_chrome_trace(str(path))
        reloaded = json.loads(path.read_text())
        events = [
            e for e in reloaded["traceEvents"] if e["ph"] == "X"
        ]
        assert len(events) == len(tracer.spans())
        assert all(event["dur"] > 0 for event in events)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_kernel_spans_nest_under_worker_items(self, executor):
        # A decorated kernel running inside a worker thread must hang
        # off that worker's item span.
        tracer = install_tracer(Tracer())
        try:
            parallel_map(observed_length, [2, 3], executor=executor)
        finally:
            uninstall_tracer()
        spans = tracer.spans()
        items = {
            s.span_id for s in spans if s.name == "parallel_map.item"
        }
        kernels = [s for s in spans if s.name == "obs.test_length"]
        assert len(kernels) == 2
        assert all(k.parent_id in items for k in kernels)

    def test_span_ids_unique_across_worker_reuse(self):
        # Several tracers in one process, one installed after another (as
        # a serve worker may), must never reuse a span id once their
        # spans are merged: the id counter is process-global, not
        # per-tracer.
        merged = Tracer()
        for _ in range(3):
            tracer = install_tracer(Tracer())
            try:
                parallel_map(
                    observed_square, list(range(4)), executor="thread"
                )
            finally:
                uninstall_tracer()
            merged.adopt(tracer.spans())
        ids = [s.span_id for s in merged.spans()]
        assert len(ids) == 3 * (1 + 4)
        assert len(ids) == len(set(ids))
