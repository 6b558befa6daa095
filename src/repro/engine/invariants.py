"""The shared LRU behind the engine's compiled design tables.

:func:`~repro.engine.portfolio.compile_portfolio` derives the paper's
per-(design, node) Eq. 2-7 terms once per (designs, technology) pair;
none of them depend on market conditions or on the number of chips, so
the compiled :class:`~repro.engine.portfolio.PortfolioInvariants` table
is cached here and every sweep, Monte Carlo chunk or served request over
the same designs reuses it.

Caching contract
----------------
Entries are keyed by the ``id()`` of the ``TechnologyDatabase`` and
``ChipDesign`` objects plus the scalar model knobs (``engineers``,
``alpha``, ``edge_corrected``, ``block_parallel``): a key holds only
ints and scalars, so CPython hashes and compares it in C. Both classes
are immutable by construction, so identity keying is sound: to
invalidate, build a new database (``TechnologyDatabase.override``) or a
new design (``dataclasses.replace`` / the library constructors) instead
of mutating -- which is the only supported workflow anyway.

An ``id()`` is unique only among live objects, so each entry *pins* the
objects whose ids its key holds: :func:`cached_invariants` stores them
beside the value. While the entry exists they stay alive, and no other
object can take their ids; once it is evicted or cleared, a new object
that reuses an id misses, because no entry names it any more.

The cache holds strong references, so it is bounded by the designs its
entries pin (:data:`CACHE_MAX_DESIGNS`), not by its entry count: an entry
compiled from ``n`` designs weighs ``n``. On insertion the oldest entries
are evicted until the total fits; the newest entry always stays, so a
TTM -> CAS -> cost sequence over one large portfolio still hits.
:func:`clear_invariant_cache` empties it explicitly.

Market-dependent quantities (queue backlogs, capacity fractions) are
deliberately *not* cached here -- they are cheap per-sweep scalars and the
whole point of a sweep is that they vary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Tuple, TypeVar

from ..obs.instrument import cache_counters

#: Upper bound on the designs pinned by cached entries.
CACHE_MAX_DESIGNS = 256

T = TypeVar("T")

#: key -> (value, designs weighed, objects pinned); oldest first.
_CACHE: "OrderedDict[tuple, Tuple[object, int, object]]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
#: Sum of the pinned-design weights of every entry in ``_CACHE``.
_PINNED = 0

#: The public hit/miss/eviction counters (plus the entries gauge) on the
#: process-wide :class:`~repro.obs.metrics.MetricsRegistry` — what used
#: to be private module ints is now readable from any metrics dump.
_HITS, _MISSES, _EVICTIONS, _ENTRIES = cache_counters()


def clear_invariant_cache() -> None:
    """Drop every cached entry and zero *all* statistics.

    Resets hits, misses, **and** evictions — an eviction count that
    survived a clear would misattribute old churn to the fresh cache.
    """
    global _PINNED
    with _CACHE_LOCK:
        _CACHE.clear()
        _PINNED = 0
        _HITS.reset()
        _MISSES.reset()
        _EVICTIONS.reset()
        _ENTRIES.set(0)


def invariant_cache_info() -> Dict[str, int]:
    """Cache statistics as ``{"hits", "misses", "evictions", "entries"}``.

    Reads the public :mod:`repro.obs.metrics` counters, so this view and
    a Prometheus/JSON metrics dump can never disagree.
    """
    with _CACHE_LOCK:
        return {
            "hits": int(_HITS.value()),
            "misses": int(_MISSES.value()),
            "evictions": int(_EVICTIONS.value()),
            "entries": len(_CACHE),
        }


def cached_invariants(
    key: tuple, pinned: object, compute: "Callable[[], T]"
) -> "T":
    """Serve ``key`` from the shared LRU, computing (outside the lock) on miss.

    ``pinned`` holds every object whose ``id()`` the key holds; a miss
    stores it beside the value, so those ids stay taken while the entry
    exists (see the caching contract above). An entry weighs its value's
    ``n_designs`` (1 for a value without one) against
    :data:`CACHE_MAX_DESIGNS`. Both halves of the critical
    section are guarded by the module lock, so hit/miss/eviction
    counters and eviction stay correct under the thread executor of
    :func:`~repro.engine.parallel.parallel_map`. Two threads racing on
    the same cold key may both compute; each call still accounts exactly
    one hit or one miss, and the last value wins.
    """
    global _PINNED
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _HITS._inc_key(())
            return cached[0]  # type: ignore[return-value]
    value = compute()
    designs = int(getattr(value, "n_designs", 1))
    with _CACHE_LOCK:
        _MISSES._inc_key(())
        replaced = _CACHE.pop(key, None)
        if replaced is not None:
            _PINNED -= replaced[1]
        _CACHE[key] = (value, designs, pinned)
        _PINNED += designs
        while _PINNED > CACHE_MAX_DESIGNS and len(_CACHE) > 1:
            _, (_, weight, _) = _CACHE.popitem(last=False)
            _PINNED -= weight
            _EVICTIONS._inc_key(())
        _ENTRIES.set(len(_CACHE))
    return value


__all__ = [
    "CACHE_MAX_DESIGNS",
    "cached_invariants",
    "clear_invariant_cache",
    "invariant_cache_info",
]
