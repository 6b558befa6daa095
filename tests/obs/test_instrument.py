"""Tests for the engine-facing instrumentation hooks."""

import numpy as np

from repro.obs.instrument import (
    EXECUTOR_FALLBACKS,
    GUARD_TRIPS,
    KERNEL_ELEMENTS,
    KERNEL_INVOCATIONS,
    cache_counters,
    disabled,
    enabled,
    guard_trip,
    observed_kernel,
    record_fallback,
    record_kernel,
)
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer


@observed_kernel("test.kernel", lambda result: result.size)
def produce(n: int) -> np.ndarray:
    return np.zeros(n)


class TestObservedKernel:
    def test_counts_invocations_and_elements(self):
        assert np.array_equal(produce(3), np.zeros(3))
        produce(5)
        assert KERNEL_INVOCATIONS.value(kernel="test.kernel") == 2.0
        assert KERNEL_ELEMENTS.value(kernel="test.kernel") == 8.0

    def test_spans_when_tracer_installed(self):
        tracer = install_tracer(Tracer())
        produce(4)
        uninstall_tracer()
        (record,) = tracer.spans()
        assert record.name == "test.kernel"
        assert record.attributes["elements"] == 4
        assert KERNEL_INVOCATIONS.value(kernel="test.kernel") == 1.0

    def test_disabled_bypasses_everything(self):
        assert enabled()
        with disabled():
            assert not enabled()
            produce(9)
        assert enabled()
        assert KERNEL_INVOCATIONS.value(kernel="test.kernel") == 0.0
        assert KERNEL_ELEMENTS.value(kernel="test.kernel") == 0.0


class TestPlainHooks:
    def test_record_kernel(self):
        record_kernel("manual", 100)
        assert KERNEL_INVOCATIONS.value(kernel="manual") == 1.0
        assert KERNEL_ELEMENTS.value(kernel="manual") == 100.0

    def test_record_fallback(self):
        record_fallback("process", "serial")
        assert (
            EXECUTOR_FALLBACKS.value(requested="process", chosen="serial")
            == 1.0
        )

    def test_guard_trip(self):
        guard_trip("sobol")
        assert GUARD_TRIPS.value(guard="sobol") == 1.0

    def test_disabled_silences_plain_hooks(self):
        with disabled():
            record_kernel("manual", 1)
            record_fallback("process", "serial")
            guard_trip("sobol")
        assert KERNEL_INVOCATIONS.value(kernel="manual") == 0.0
        assert EXECUTOR_FALLBACKS.series() == {}
        assert GUARD_TRIPS.series() == {}


class TestCacheCounters:
    def test_exposes_the_four_cache_instruments(self):
        hits, misses, evictions, entries = cache_counters()
        assert hits.name == "invariant_cache_hits_total"
        assert misses.name == "invariant_cache_misses_total"
        assert evictions.name == "invariant_cache_evictions_total"
        assert entries.name == "invariant_cache_entries"
