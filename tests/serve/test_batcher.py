"""Unit tests for the coalescing micro-batcher (no HTTP, no engine).

The scheduling tests hold a batch in its worker thread on a
``threading.Event``, so "requests that arrive while a batch of their
key is running" is a state the test builds, not a race it hopes for.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
from typing import Any, Hashable, List, Sequence, Tuple

import pytest

from repro.serve.batcher import (
    CoalescingBatcher,
    QueueFullError,
    ServerClosingError,
)


class Recorder:
    """A batch function that records every call it receives.

    A call carrying ``hold_on`` blocks its worker thread until
    ``release`` is set.
    """

    def __init__(self, fail_on: Any = None, hold_on: Any = None) -> None:
        self.calls: List[Tuple[Hashable, Tuple[Any, ...]]] = []
        self.fail_on = fail_on
        self.hold_on = hold_on
        self.release = threading.Event()

    def __call__(self, key: Hashable, payloads: Sequence[Any]) -> List[Any]:
        self.calls.append((key, tuple(payloads)))
        if self.hold_on is not None and self.hold_on in payloads:
            if not self.release.wait(timeout=30.0):
                raise TimeoutError("held batch was never released")
        if self.fail_on is not None and self.fail_on in payloads:
            raise ValueError(f"poisoned by {self.fail_on!r}")
        return [("done", payload) for payload in payloads]


def run(main):
    """Run an async test body (a zero-arg coroutine function)."""
    return asyncio.run(main())


def within(awaitable, timeout=10.0):
    """Bound a wait, so a group that never flushes fails instead of hangs."""
    return asyncio.wait_for(awaitable, timeout)


def test_burst_coalesces_into_one_batch():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=32)
        results = await asyncio.gather(
            *(batcher.submit("k", i) for i in range(8))
        )
        await batcher.drain()
        return results

    results = run(main)
    assert len(recorder.calls) == 1
    assert recorder.calls[0] == ("k", tuple(range(8)))
    # Every submitter got its own slice and the shared batch size.
    assert results == [(("done", i), 8) for i in range(8)]


def test_max_batch_flushes_immediately():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=4)
        futures = [batcher.enqueue("k", i) for i in range(4)]
        # Flushed inside enqueue, before the loop turns even once.
        assert batcher.stats()["batches"] == 1
        results = await asyncio.gather(*futures)
        await batcher.drain()
        return results

    results = run(main)
    assert len(recorder.calls) == 1
    assert [size for _, size in results] == [4, 4, 4, 4]


def test_distinct_keys_never_fuse():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=32)
        await asyncio.gather(
            batcher.submit("a", 1),
            batcher.submit("b", 2),
            batcher.submit("a", 3),
        )
        await batcher.drain()

    run(main)
    by_key = {key: payloads for key, payloads in recorder.calls}
    assert by_key == {"a": (1, 3), "b": (2,)}


def test_max_batch_one_disables_coalescing():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=1)
        await asyncio.gather(*(batcher.submit("k", i) for i in range(5)))
        await batcher.drain()

    run(main)
    assert len(recorder.calls) == 5
    assert all(len(payloads) == 1 for _, payloads in recorder.calls)


def test_queue_full_raises_and_depth_recovers():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=64, max_queue=3)
        futures = [batcher.enqueue("k", i) for i in range(3)]
        with pytest.raises(QueueFullError):
            batcher.enqueue("k", 99)
        assert batcher.depth == 3
        await batcher.drain()
        assert batcher.depth == 0
        return await asyncio.gather(*futures)

    results = run(main)
    assert [payload for (_, payload), _ in results] == [0, 1, 2]


def test_draining_rejects_new_work():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder)
        await batcher.drain()
        with pytest.raises(ServerClosingError):
            batcher.enqueue("k", 1)

    run(main)


def test_drain_completes_pending_groups():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=64)
        futures = [batcher.enqueue("k", i) for i in range(3)]
        # Drain flushes the group now, not on the next loop turn.
        await batcher.drain()
        return await asyncio.gather(*futures)

    results = run(main)
    assert len(recorder.calls) == 1
    assert [size for _, size in results] == [3, 3, 3]


def test_poisoned_batch_retries_solo_and_isolates_failure():
    recorder = Recorder(fail_on=2)

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=32)
        results = await asyncio.gather(
            *(batcher.submit("k", i) for i in range(4)),
            return_exceptions=True,
        )
        await batcher.drain()
        return results

    results = run(main)
    # One fused attempt + one solo retry per member.
    assert len(recorder.calls) == 1 + 4
    assert recorder.calls[0][1] == (0, 1, 2, 3)
    # The poisoned member fails alone; its neighbors all succeed.
    assert isinstance(results[2], ValueError)
    for i in (0, 1, 3):
        (tag, payload), _size = results[i]
        assert (tag, payload) == ("done", i)


def test_single_payload_failure_propagates_without_retry():
    recorder = Recorder(fail_on=7)

    async def main():
        batcher = CoalescingBatcher(recorder)
        with pytest.raises(ValueError):
            await batcher.submit("k", 7)
        await batcher.drain()

    run(main)
    assert len(recorder.calls) == 1


def test_abandoned_future_skips_delivery():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=32)
        abandoned = batcher.enqueue("k", 0)
        kept = batcher.enqueue("k", 1)
        abandoned.cancel()  # the server's deadline path
        result = await kept
        await batcher.drain()
        return result

    (tag, payload), size = run(main)
    assert (tag, payload) == ("done", 1)
    assert size == 2  # the abandoned request still rode in the batch


def test_stats_track_batches_and_requests():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=32)
        await asyncio.gather(*(batcher.submit("k", i) for i in range(6)))
        await batcher.submit("other", 1)
        await batcher.drain()
        return batcher.stats()

    stats = run(main)
    assert stats == {"batches": 2, "batched_requests": 7}


def test_invalid_parameters_rejected():
    recorder = Recorder()
    with pytest.raises(ValueError):
        CoalescingBatcher(recorder, max_batch=0)
    with pytest.raises(ValueError):
        CoalescingBatcher(recorder, max_queue=0)


# -- continuous batching: scheduling around a running batch ------------------


def test_lone_submission_flushes_after_one_loop_turn():
    recorder = Recorder()

    async def main():
        batcher = CoalescingBatcher(recorder)
        future = batcher.enqueue("k", 0)
        # Same loop turn: later submissions may still join the group.
        assert batcher.stats()["batches"] == 0
        await asyncio.sleep(0)
        # One turn later the idle key's group is in the pool.
        assert batcher.stats()["batches"] == 1
        result = await within(future)
        await batcher.drain()
        return result

    assert run(main) == (("done", 0), 1)


def test_submissions_behind_a_running_batch_fuse_into_one():
    """A 16-request burst coalesces: 1 runs, the other 15 ride together."""
    recorder = Recorder(hold_on=0)

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=16)
        futures = [batcher.enqueue("k", 0)]
        await asyncio.sleep(0)  # flushed; its worker thread holds it
        for i in range(1, 16):
            futures.append(batcher.enqueue("k", i))
            await asyncio.sleep(0)  # one arrival per loop turn
        assert batcher.stats()["batches"] == 1
        recorder.release.set()
        results = await within(asyncio.gather(*futures))
        await batcher.drain()
        return results

    results = run(main)
    assert recorder.calls == [("k", (0,)), ("k", tuple(range(1, 16)))]
    assert [size for _, size in results] == [1] + [15] * 15
    assert [payload for (_, payload), _ in results] == list(range(16))


def test_max_batch_splits_the_group_behind_a_running_batch():
    recorder = Recorder(hold_on=0)

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=16)
        futures = [batcher.enqueue("k", 0)]
        await asyncio.sleep(0)
        futures += [batcher.enqueue("k", i) for i in range(1, 41)]
        await asyncio.sleep(0)
        # Two full groups flushed at once; the remaining 8 wait for the
        # key's running batches to be delivered.
        assert batcher.stats()["batches"] == 3
        recorder.release.set()
        results = await within(asyncio.gather(*futures))
        await batcher.drain()
        return results

    results = run(main)
    assert recorder.calls == [
        ("k", (0,)),
        ("k", tuple(range(1, 17))),
        ("k", tuple(range(17, 33))),
        ("k", tuple(range(33, 41))),
    ]
    assert [size for _, size in results] == [1] + [16] * 32 + [8] * 8


def test_full_flush_leaves_the_rest_behind_the_running_batch():
    recorder = Recorder(hold_on=0)

    async def main():
        batcher = CoalescingBatcher(recorder, max_batch=4)
        futures = [batcher.enqueue("k", i) for i in range(6)]
        await asyncio.sleep(0)
        # The idle-key flush scheduled for the first group finds it
        # already sent at max_batch; the second group waits behind it.
        assert batcher.stats()["batches"] == 1
        recorder.release.set()
        results = await within(asyncio.gather(*futures))
        await batcher.drain()
        return results

    results = run(main)
    assert recorder.calls == [("k", (0, 1, 2, 3)), ("k", (4, 5))]
    assert [size for _, size in results] == [4, 4, 4, 4, 2, 2]


def test_running_batch_of_one_key_never_delays_another():
    recorder = Recorder(hold_on="a0")

    async def main():
        batcher = CoalescingBatcher(recorder, workers=2)
        held = batcher.enqueue("a", "a0")
        await asyncio.sleep(0)
        try:
            other = await within(batcher.submit("b", "b0"))
            assert not held.done()
        finally:
            recorder.release.set()
        first = await within(held)
        await batcher.drain()
        return first, other

    first, other = run(main)
    assert other == (("done", "b0"), 1)
    assert first == (("done", "a0"), 1)


def test_drain_delivers_a_held_batch_and_the_group_behind_it():
    recorder = Recorder(hold_on=0)

    async def main():
        batcher = CoalescingBatcher(recorder)
        futures = [batcher.enqueue("k", 0)]
        await asyncio.sleep(0)
        futures += [batcher.enqueue("k", i) for i in (1, 2, 3)]
        await asyncio.sleep(0)
        assert batcher.stats()["batches"] == 1  # the group waits
        drainer = asyncio.ensure_future(batcher.drain())
        await asyncio.sleep(0)
        # Drain flushes the pending group without waiting for the
        # running batch.
        assert batcher.stats()["batches"] == 2
        with pytest.raises(ServerClosingError):
            batcher.enqueue("k", 99)
        recorder.release.set()
        await within(drainer)
        assert batcher.depth == 0
        return await within(asyncio.gather(*futures))

    results = run(main)
    assert recorder.calls == [("k", (0,)), ("k", (1, 2, 3))]
    assert [size for _, size in results] == [1, 3, 3, 3]


def test_poisoned_follow_on_batch_retries_solo():
    recorder = Recorder(fail_on=2, hold_on=0)

    async def main():
        batcher = CoalescingBatcher(recorder)
        futures = [batcher.enqueue("k", 0)]
        await asyncio.sleep(0)
        futures += [batcher.enqueue("k", i) for i in (1, 2, 3)]
        recorder.release.set()
        results = await within(
            asyncio.gather(*futures, return_exceptions=True)
        )
        await batcher.drain()
        return results

    results = run(main)
    assert recorder.calls == [
        ("k", (0,)),
        ("k", (1, 2, 3)),
        ("k", (1,)),
        ("k", (2,)),
        ("k", (3,)),
    ]
    assert isinstance(results[2], ValueError)
    for i in (0, 1, 3):
        (tag, payload), _size = results[i]
        assert (tag, payload) == ("done", i)


def test_many_keys_on_many_threads_settle_idle():
    """Random arrivals over 8 keys on 4 batch threads (more than cores)."""
    recorder = Recorder()
    rng = random.Random(20231017)
    keys = [f"k{i}" for i in range(8)]
    submitted = {key: [] for key in keys}

    async def main():
        batcher = CoalescingBatcher(
            recorder, max_batch=8, max_queue=1000, workers=4
        )
        futures = []
        for i in range(400):
            key = rng.choice(keys)
            submitted[key].append(i)
            futures.append(batcher.enqueue(key, i))
            if rng.random() < 0.3:
                await asyncio.sleep(0)
            elif rng.random() < 0.05:
                await asyncio.sleep(0.001)
        results = await within(asyncio.gather(*futures))
        assert batcher.depth == 0
        # Every key is idle again: a lone submission per key flushes
        # after one loop turn (a leaked running count would park it).
        before = batcher.stats()["batches"]
        lone = [batcher.enqueue(key, -1) for key in keys]
        await asyncio.sleep(0)
        assert batcher.stats()["batches"] == before + len(keys)
        await within(asyncio.gather(*lone))
        await batcher.drain()
        return results

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run(main)
    finally:
        sys.setswitchinterval(previous)
    assert [payload for (_, payload), _ in results] == list(range(400))
    for key in keys:
        calls = [p for k, p in recorder.calls if k == key and p != (-1,)]
        assert all(len(payloads) <= 8 for payloads in calls)
        assert sorted(i for payloads in calls for i in payloads) == (
            submitted[key]
        )
