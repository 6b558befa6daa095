"""The coalescing micro-batcher: fuse concurrent requests into one call.

Requests that share a compatibility key are executed as one fused batch
in a worker thread; each submitter gets its own slice of the batch
result. Scheduling is *continuous batching* (Orca, Yu et al., OSDI '22),
not a timer: when no batch of a key is in flight, its group flushes on
the next event-loop turn, so a lone request waits for nothing while
submissions made in the same turn still fuse. Requests that arrive
while a batch of their key is in flight (flushed, not yet delivered)
collect into one pending group, flushed the moment that batch is
delivered — the busier a key, the larger its batches. A group reaching
``max_batch`` flushes at once, and ``max_batch=1`` turns coalescing off.

Admission control is a bounded count of admitted-but-uncompleted
requests: past ``max_queue``, :meth:`CoalescingBatcher.submit` raises
:class:`QueueFullError` (the server maps it to ``429 Retry-After``).
While draining, new submissions raise :class:`ServerClosingError` (503)
and every pending group is flushed immediately — in-flight work always
completes, which is the graceful-shutdown guarantee.

Batch poisoning: one bad request (say, a design with zero TTM
sensitivity asking for CAS) would fail the whole fused call, so when a
batch raises, the worker retries each member solo and delivers per-item
results or errors. Good requests are never failed by a bad neighbor.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future as ThreadFuture
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..obs import instrument
from ..obs.trace import span

#: A batch executor: (key, payloads) -> one result per payload, in order.
BatchFunction = Callable[[Hashable, Sequence[Any]], Sequence[Any]]


class QueueFullError(Exception):
    """Admission control refused the request (bounded queue is full)."""


class ServerClosingError(Exception):
    """The batcher is draining and no longer admits new requests."""


class _Group:
    """One key's open batch: payloads and their futures.

    ``metas`` is a parallel list of optional per-request observability
    dicts the batcher stamps timing and batch membership into — kept
    apart from the payloads so trace plumbing can never perturb what
    the engine (or the coalescing group key) sees.
    """

    __slots__ = ("key", "payloads", "futures", "metas")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.payloads: List[Any] = []
        self.futures: List[asyncio.Future] = []
        self.metas: List[Optional[Dict[str, Any]]] = []


class CoalescingBatcher:
    """Groups compatible submissions and runs them fused in worker threads.

    Parameters
    ----------
    batch_function:
        Called in a worker thread with ``(key, payloads)``; must return
        one result per payload, in order. Exceptions trigger the
        per-item solo retry described in the module docstring.
    max_batch:
        Group size that triggers an immediate flush. ``1`` flushes every
        submission on its own (coalescing off — the bench baseline).
    max_queue:
        Bound on admitted-but-uncompleted requests (admission control).
    workers:
        Worker threads executing fused batches. The default of 1
        serializes engine calls, which keeps the process-wide invariant
        cache hot and the GIL uncontended; raise it when batches block
        on anything but the CPU.
    endpoint_of:
        Maps a group key to the metrics ``endpoint`` label.
    """

    def __init__(
        self,
        batch_function: BatchFunction,
        *,
        max_batch: int = 32,
        max_queue: int = 256,
        workers: int = 1,
        endpoint_of: Callable[[Hashable], str] = lambda key: str(key),
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max queue must be >= 1, got {max_queue}")
        self._batch_function = batch_function
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self._endpoint_of = endpoint_of
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-batch"
        )
        self._groups: Dict[Hashable, _Group] = {}
        self._in_flight: Dict[ThreadFuture, None] = {}
        # Batches flushed but not yet delivered, per key: a key's pending
        # group waits for its count to return to zero.
        self._running: Dict[Hashable, int] = {}
        self._depth = 0
        self._draining = False
        self._batches = 0
        self._batched_requests = 0

    # -- bookkeeping -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Admitted-but-uncompleted request count (the bounded queue)."""
        return self._depth

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> Dict[str, int]:
        """Lifetime totals: batches executed and requests they carried."""
        return {
            "batches": self._batches,
            "batched_requests": self._batched_requests,
        }

    def _set_depth(self, depth: int) -> None:
        self._depth = depth
        instrument.set_queue_depth(depth)

    # -- submission ------------------------------------------------------------

    async def submit(self, key: Hashable, payload: Any) -> Tuple[Any, int]:
        """Queue one payload and await its ``(result, batch_size)``.

        Raises :class:`ServerClosingError` while draining and
        :class:`QueueFullError` past the admission bound. Other
        exceptions are whatever the batch function raised for this
        payload's solo retry.
        """
        return await self.enqueue(key, payload)

    def enqueue(
        self,
        key: Hashable,
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "asyncio.Future":
        """Queue one payload, returning its future without awaiting it.

        Must be called from the event-loop thread. The future resolves
        to ``(result, batch_size)``; callers enforcing a deadline await
        it behind :func:`asyncio.shield` and *cancel the returned
        future* on timeout, which tells delivery to skip it without
        disturbing the rest of the batch.

        ``meta``, when given, receives ``perf_counter_ns`` stamps
        (``t_enqueue`` / ``t_flush`` / ``t_exec_start`` / ``t_exec_end``)
        and the ``batch_span_id`` its request fused into — the server's
        latency breakdown and trace batch-membership links.
        """
        if self._draining:
            instrument.record_rejection("draining")
            raise ServerClosingError("server is draining; not accepting work")
        if self._depth >= self.max_queue:
            instrument.record_rejection("queue_full")
            raise QueueFullError(
                f"admission queue is full ({self.max_queue} in flight)"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._set_depth(self._depth + 1)

        group = self._groups.get(key)
        if group is None:
            group = _Group(key)
            self._groups[key] = group
            if not self._running.get(key):
                # Idle key: flush once this loop turn's submissions are in.
                loop.call_soon(self._flush_if_idle, key)
        if meta is not None:
            meta["t_enqueue"] = time.perf_counter_ns()
        group.payloads.append(payload)
        group.futures.append(future)
        group.metas.append(meta)
        if len(group.payloads) >= self.max_batch:
            self._flush(key)
        return future

    # -- flushing --------------------------------------------------------------

    def _flush_if_idle(self, key: Hashable) -> None:
        """Flush ``key``'s group unless a batch of that key is running.

        A running batch's :meth:`_deliver` flushes the group instead, so
        a stale callback (its group already flushed at ``max_batch``)
        never sends a second batch of the key early.
        """
        if not self._running.get(key):
            self._flush(key)

    def _flush(self, key: Hashable) -> None:
        """Move one group from pending to in-flight (event-loop thread)."""
        group = self._groups.pop(key, None)
        if group is None:
            return
        loop = asyncio.get_running_loop()
        size = len(group.payloads)
        endpoint = self._endpoint_of(key)
        self._running[key] = self._running.get(key, 0) + 1
        self._batches += 1
        self._batched_requests += size
        instrument.record_batch(endpoint, size, max_batch=self.max_batch)
        now = time.perf_counter_ns()
        for meta in group.metas:
            if meta is not None:
                meta["t_flush"] = now
        handle = self._pool.submit(
            self._run_batch, key, endpoint, group.payloads, group.metas
        )
        self._in_flight[handle] = None
        handle.add_done_callback(
            lambda done: loop.call_soon_threadsafe(
                self._deliver, done, group, size
            )
        )

    def _run_batch(
        self,
        key: Hashable,
        endpoint: str,
        payloads: List[Any],
        metas: Optional[List[Optional[Dict[str, Any]]]] = None,
    ) -> List[Tuple[bool, Any]]:
        """Worker-thread body: fused call, solo retries on failure."""
        metas = metas if metas is not None else [None] * len(payloads)
        start = time.perf_counter_ns()
        for meta in metas:
            if meta is not None:
                meta["t_exec_start"] = start
        try:
            with span(
                "serve.batch", endpoint=endpoint, size=len(payloads)
            ) as active:
                if active.span_id is not None:
                    # Batch membership: the batch span links to every
                    # request it fused; each request's meta learns which
                    # batch span it rode in (stitch_trace uses both).
                    links = [
                        {
                            "request_id": meta.get("request_id"),
                            "trace_id": meta.get("trace_id"),
                        }
                        for meta in metas
                        if meta is not None
                    ]
                    if links:
                        active.set("links", links)
                    for meta in metas:
                        if meta is not None:
                            meta["batch_span_id"] = active.span_id
                try:
                    results = list(self._batch_function(key, payloads))
                    if len(results) != len(payloads):
                        raise RuntimeError(
                            f"batch function returned {len(results)} results "
                            f"for {len(payloads)} payloads"
                        )
                    return [(True, result) for result in results]
                except Exception:
                    if len(payloads) == 1:
                        raise
                outcomes: List[Tuple[bool, Any]] = []
                for payload in payloads:
                    try:
                        (solo,) = self._batch_function(key, [payload])
                        outcomes.append((True, solo))
                    except Exception as error:
                        outcomes.append((False, error))
                return outcomes
        finally:
            end = time.perf_counter_ns()
            for meta in metas:
                if meta is not None:
                    meta["t_exec_end"] = end

    def _deliver(
        self, handle: ThreadFuture, group: _Group, size: int
    ) -> None:
        """Resolve the group's futures from a finished batch (loop thread).

        The last running batch of a key flushes the group that collected
        behind it.
        """
        self._in_flight.pop(handle, None)
        self._set_depth(self._depth - size)
        running = self._running.pop(group.key) - 1
        if running:
            self._running[group.key] = running
        elif group.key in self._groups:
            self._flush(group.key)
        error = handle.exception()
        for i, future in enumerate(group.futures):
            if future.done():  # submitter gave up (deadline); drop quietly
                continue
            if error is not None:
                future.set_exception(error)
                continue
            ok, value = handle.result()[i]
            if ok:
                future.set_result((value, size))
            else:
                future.set_exception(value)

    # -- shutdown --------------------------------------------------------------

    async def drain(self) -> None:
        """Refuse new work, flush pending groups, wait out in-flight batches.

        Idempotent; afterwards the worker pool is shut down and every
        previously admitted request has been delivered a result (or an
        error) — nothing is abandoned.
        """
        self._draining = True
        for key in list(self._groups):
            self._flush(key)
        while self._in_flight:
            handles = list(self._in_flight)
            await asyncio.gather(
                *(asyncio.wrap_future(handle) for handle in handles),
                return_exceptions=True,
            )
            # _deliver runs via call_soon_threadsafe; yield so it lands.
            await asyncio.sleep(0)
        self._pool.shutdown(wait=True)


__all__ = [
    "BatchFunction",
    "CoalescingBatcher",
    "QueueFullError",
    "ServerClosingError",
]
