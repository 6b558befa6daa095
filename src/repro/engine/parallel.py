"""Ordered map over independent work items: serial, or a thread pool.

One study fans its work out: the scenario study
(:func:`repro.montecarlo.scenario_study.run_scenario_study`), whose
chunks spend their time in NumPy, which releases the GIL. Every other
study, sweep and search is serial code. This module provides the one
ordered map primitive with two executors:

* ``"serial"`` (default) -- a plain loop.
* ``"thread"`` -- a ``ThreadPoolExecutor`` sized from the host,
  ``min(len(items), os.cpu_count() or 1)`` threads: more threads than
  CPUs only hold more chunks in memory at once.

Results always come back in input order and exceptions raised by the
mapped function propagate unchanged, so ``parallel_map(f, xs)`` is a
drop-in for ``[f(x) for x in xs]`` under both executors.

Seeded workloads pass ``seed=``: each item then receives its own
``numpy.random.Generator`` derived from ``SeedSequence(seed).spawn``, and
``function`` is called as ``function(item, rng)``. Because the child
sequence for item ``i`` depends only on ``(seed, i)`` -- never on which
thread ran it or in what order -- results are bit-for-bit identical
across both executors.

Observability: with a tracer installed (:func:`repro.obs.install_tracer`)
each call records a ``parallel_map`` span with one ``parallel_map.item``
child span per evaluation.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List, Optional, Tuple, TypeVar

from ..errors import InvalidParameterError
from ..obs import trace as _trace

T = TypeVar("T")
R = TypeVar("R")

#: Recognized executor names.
EXECUTORS: Tuple[str, ...] = ("serial", "thread")


def parallel_map(
    function: Callable[..., R],
    items: Iterable[T],
    executor: str = "serial",
    seed: Optional[int] = None,
) -> List[R]:
    """Apply ``function`` to every item, preserving input order.

    Parameters
    ----------
    function:
        The per-item evaluation.
    items:
        The evaluation points (consumed eagerly).
    executor:
        One of :data:`EXECUTORS`.
    seed:
        When given, item ``i`` is evaluated as ``function(item, rng_i)``
        where ``rng_i`` is a ``numpy.random.Generator`` spawned from
        ``SeedSequence(seed)``. The stream assigned to an item depends
        only on the seed and the item's position, making seeded maps
        deterministic across executors.
    """
    if executor not in EXECUTORS:
        raise InvalidParameterError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    points: List[Any] = list(items)
    if seed is not None:
        import numpy as np

        children = np.random.SeedSequence(seed).spawn(len(points))
        points = list(zip(points, children))

        def call(pair: Tuple[T, Any]) -> R:
            item, child = pair
            return function(item, np.random.default_rng(child))

    else:
        call = function
    tracer = _trace.current_tracer()
    if tracer is None:
        return _dispatch(call, points, executor)
    with tracer.span(
        "parallel_map",
        executor=executor,
        n_items=len(points),
        seeded=seed is not None,
    ) as root:
        # Worker threads have their own span stacks, so each item names
        # the map span as its parent explicitly.
        def traced(item: Any) -> R:
            with tracer.span("parallel_map.item", parent_id=root.span_id):
                return call(item)

        return _dispatch(traced, points, executor)


def _dispatch(
    function: Callable[[Any], R], points: List[Any], executor: str
) -> List[R]:
    """Run the map on the chosen executor."""
    if executor == "serial" or len(points) <= 1:
        return [function(item) for item in points]
    from concurrent.futures import ThreadPoolExecutor

    workers = min(len(points), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(function, points))


__all__ = ["EXECUTORS", "parallel_map"]
