"""Tests for the parallel_map executor."""

import pytest

from repro.engine.parallel import EXECUTORS, parallel_map
from repro.errors import InvalidParameterError


def square(value: float) -> float:
    return value * value


class TestParallelMap:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_preserves_order(self, executor):
        items = list(range(20))
        assert parallel_map(square, items, executor=executor) == [
            square(i) for i in items
        ]

    def test_empty_and_singleton(self):
        assert parallel_map(square, [], executor="thread") == []
        assert parallel_map(square, [3], executor="thread") == [9]

    def test_serial_and_thread_do_not_warn(self, recwarn):
        parallel_map(square, [1, 2, 3], executor="serial")
        parallel_map(square, [1, 2, 3], executor="thread")
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_exceptions_propagate(self, executor):
        def explode(value):
            raise ValueError(f"boom {value}")

        with pytest.raises(ValueError, match="boom"):
            parallel_map(explode, [1, 2], executor=executor)

    def test_rejects_unknown_executor(self):
        # "process" included: there is no process pool to fall back from.
        for name in ("fork-bomb", "process"):
            with pytest.raises(InvalidParameterError, match="executor"):
                parallel_map(square, [1], executor=name)


def draw_total(item: float, rng) -> float:
    """Seeded evaluation: the item plus four draws from its own stream."""
    return float(item + rng.normal(size=4).sum())


class TestSeededParallelMap:
    """The seed= contract: executor choice must never change results."""

    def test_serial_thread_bitwise_identical(self):
        items = list(range(11))
        serial = parallel_map(draw_total, items, seed=77)
        assert parallel_map(draw_total, items, executor="thread", seed=77) == (
            serial
        )

    def test_same_seed_reproduces_and_seeds_differ(self):
        first = parallel_map(draw_total, [0.0, 1.0], seed=5)
        again = parallel_map(draw_total, [0.0, 1.0], seed=5)
        other = parallel_map(draw_total, [0.0, 1.0], seed=6)
        assert first == again
        assert first != other

    def test_items_get_independent_streams(self):
        # Identical items must not see identical draws.
        values = parallel_map(draw_total, [0.0, 0.0, 0.0], seed=9)
        assert len(set(values)) == 3

    def test_seeded_singleton_matches_multi_item_prefix(self):
        # Chunk streams depend only on (seed, index), so evaluating a
        # prefix of the items yields a prefix of the results.
        full = parallel_map(draw_total, [4.0, 5.0], seed=21)
        prefix = parallel_map(draw_total, [4.0], seed=21)
        assert prefix == full[:1]

    def test_unseeded_calls_keep_single_argument_signature(self):
        assert parallel_map(square, [2, 3]) == [4, 9]


class TestThreadPoolSize:
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # A 6-item map on a 2-CPU host runs on at most 2 threads: more
        # threads than CPUs only hold more chunks in memory at once.
        import threading
        import time

        from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        barrier = threading.Barrier(2, timeout=10)

        def wait_for_a_peer(value):
            # The first two items meet at the barrier, so two threads do
            # run; every item then holds its thread for a while, so a
            # larger pool would spread the rest over more threads.
            if value < 2:
                barrier.wait()
            time.sleep(0.02)
            return value

        tracer = install_tracer(Tracer())
        try:
            assert parallel_map(
                wait_for_a_peer, range(6), executor="thread"
            ) == list(range(6))
        finally:
            uninstall_tracer()
        threads = {
            s.thread_id for s in tracer.spans() if s.name == "parallel_map.item"
        }
        assert len(threads) == 2

    @pytest.mark.parametrize("cpus, expected", ((8, 3), (None, 1)))
    def test_pool_size_is_items_capped_at_cpus(
        self, monkeypatch, cpus, expected
    ):
        from concurrent import futures

        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        sizes = []
        real = futures.ThreadPoolExecutor

        def sized(max_workers=None, **kwargs):
            sizes.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", sized)
        assert parallel_map(square, [1, 2, 3], executor="thread") == [1, 4, 9]
        assert sizes == [expected]
