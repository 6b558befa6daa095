"""Executable pin of the invariant cache's invalidation contract.

DESIGN.md / ``engine.invariants`` document the contract as: entries are
keyed by *object identity*, which is sound because designs and
technologies are immutable — to change an input you must build a derived
object, and the derived object misses the cache and recomputes. These
tests make both halves executable:

* mutating a cached design/technology (or their parts) **raises** — the
  value objects are frozen;
* deriving a new design/technology after a cache hit **recomputes** —
  the result visibly reflects the change instead of serving stale data.

Keys hold ``id()`` ints, so each entry pins the objects whose ids its
key holds; ``TestEntriesPinTheirKeys`` makes that executable too.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.design.library import a11, ariane_manycore
from repro.engine.invariants import (
    clear_invariant_cache,
    invariant_cache_info,
)
from repro.engine.portfolio import compile_portfolio
from repro.technology.database import (
    TechnologyDatabase,
    build_default_nodes,
)
from repro.ttm.model import DEFAULT_ENGINEERS


def compile_one(design, db, engineers=DEFAULT_ENGINEERS):
    """The cached 1-design table (what every ``batch_*`` call reads)."""
    return compile_portfolio((design,), db, engineers)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_invariant_cache()
    yield
    clear_invariant_cache()


class TestMutationRaises:
    def test_design_is_frozen(self):
        design = a11("7nm")
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.name = "A12"

    def test_die_is_frozen(self):
        die = a11("7nm").dies[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            die.area_mm2 = 1.0

    def test_process_node_is_frozen(self, db):
        node = db["7nm"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.defect_density_per_cm2 = 0.0

    def test_database_has_no_public_mutators(self, db):
        # The Mapping facade is read-only: no __setitem__/__delitem__,
        # and the only way to "change" a node is override(), which
        # returns a new database.
        with pytest.raises(TypeError):
            db["7nm"] = db["5nm"]


class TestDerivationRecomputes:
    def test_cache_hit_then_override_recomputes(self, db):
        design = a11("7nm")
        first = compile_one(design, db)
        again = compile_one(design, db)
        assert again is first  # identity hit
        info = invariant_cache_info()
        assert info["hits"] >= 1

    def test_overridden_technology_misses_and_reflects_change(self, db):
        design = a11("7nm")
        before = compile_one(design, db)
        doubled = db.override(
            {"7nm": {
                "defect_density_per_cm2": db["7nm"].defect_density_per_cm2 * 2
            }}
        )
        after = compile_one(design, doubled)
        assert after is not before
        # Worse yield -> strictly more wafers per chip.
        assert np.sum(after.wafers_per_chip) > np.sum(before.wafers_per_chip)
        # The original entry is untouched (no stale overwrite either way).
        assert compile_one(design, db) is before

    def test_replaced_design_misses_and_reflects_change(self, db):
        design = a11("7nm")
        before = compile_one(design, db)
        die = design.dies[0]
        bigger_die = dataclasses.replace(
            die, area_mm2=2.0 * die.area_on(db[die.process])
        )
        bigger = dataclasses.replace(
            design, dies=(bigger_die,) + design.dies[1:]
        )
        after = compile_one(bigger, db)
        assert after is not before
        assert np.sum(after.wafers_per_chip) > np.sum(before.wafers_per_chip)

    def test_equal_but_distinct_objects_are_distinct_entries(self):
        # Identity keying: a structurally identical rebuild is a *miss*,
        # never a false hit on the old entry.
        db_a = TechnologyDatabase.default()
        db_b = TechnologyDatabase(build_default_nodes())
        design = a11("7nm")
        first = compile_one(design, db_a)
        second = compile_one(design, db_b)
        assert first is not second
        assert invariant_cache_info()["misses"] >= 2

    def test_model_knobs_are_part_of_the_key(self, db):
        design = a11("7nm")
        default = compile_one(design, db)
        more_engineers = compile_one(design, db, DEFAULT_ENGINEERS * 2)
        assert more_engineers is not default
        # Twice the engineers halve the calendar tapeout time (Eq. 2), so
        # the knob must be part of the key or sweeps would serve stale
        # schedules.
        assert more_engineers.sequential_tapeout_weeks[0] != pytest.approx(
            default.sequential_tapeout_weeks[0]
        )


class TestEntriesPinTheirKeys:
    """An entry keeps alive every object whose ``id()`` its key holds.

    Without the pin, a design freed while its entry stays cached could
    hand its id to a new design, and the new design would hit the old
    design's table.
    """

    @pytest.mark.parametrize("per_design_databases", [False, True])
    def test_entry_pins_designs_and_databases(self, per_design_databases):
        db = TechnologyDatabase(build_default_nodes())
        designs = (a11("28nm"), a11("7nm"))
        technology = [db] * len(designs) if per_design_databases else db
        compile_portfolio(designs, technology)
        refs = [weakref.ref(obj) for obj in designs + (db,)]
        if per_design_databases:
            technology.clear()  # the entry pins a copy, not the list
        del designs, technology, db
        gc.collect()
        assert all(ref() is not None for ref in refs)
        clear_invariant_cache()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_design_built_after_the_old_is_freed_misses(self, db):
        old = ariane_manycore("7nm", icache_kb=16, dcache_kb=32)
        old_ntt = compile_one(old, db).profile_ntt[0]
        del old
        clear_invariant_cache()
        gc.collect()
        # Same shape, different transistor counts. The new design may
        # take the freed design's id; with no entry left to name that
        # id, it must still miss and compile its own values.
        new = ariane_manycore("7nm", icache_kb=64, dcache_kb=64)
        table = compile_one(new, db)
        assert invariant_cache_info()["misses"] == 1
        assert table.profile_ntt.tolist() == [new.dies[0].ntt]
        assert table.profile_ntt[0] > old_ntt


class TestThreadSafety:
    """Counters and eviction stay exact under concurrent access.

    ``cached_invariants`` accounts exactly one hit or one miss per call
    and mutates the LRU only under the module lock, so a thread-pool
    hammering a handful of keys must end with ``hits + misses == calls``
    and one entry per distinct key — the statistics ``parallel_map``
    thread-executor runs report are trustworthy.
    """

    def test_concurrent_counters_are_exact(self, db):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        designs = [a11(node) for node in ("65nm", "40nm", "28nm", "7nm")]
        n_workers = 8
        iterations = 25
        barrier = threading.Barrier(n_workers)

        def hammer(worker):
            barrier.wait()  # maximize contention on the cold keys
            for i in range(iterations):
                design = designs[(worker + i) % len(designs)]
                table = compile_one(design, db)
                assert table.processes == (design.processes,)

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(hammer, range(n_workers)))

        info = invariant_cache_info()
        assert info["hits"] + info["misses"] == n_workers * iterations
        assert info["entries"] == len(designs)
        # Racing threads may double-compute a cold key, but never
        # under-account it.
        assert info["misses"] >= len(designs)

    def test_concurrent_portfolio_compiles_share_entries(self, db):
        from concurrent.futures import ThreadPoolExecutor

        designs = tuple(a11(node) for node in ("40nm", "28nm", "7nm"))

        def compile_once(_):
            return compile_portfolio(designs, db)

        with ThreadPoolExecutor(max_workers=6) as pool:
            compiled = list(pool.map(compile_once, range(12)))

        info = invariant_cache_info()
        # Every lookup is accounted exactly: one hit or one miss per call.
        assert info["hits"] + info["misses"] == 12
        assert info["misses"] >= 1
        # One entry for the compiled table, however many designs it holds.
        assert info["entries"] == 1
        reference = compiled[0]
        for other in compiled:
            assert np.array_equal(
                other.tapeout_weeks, reference.tapeout_weeks
            )
            assert np.array_equal(other.max_rate, reference.max_rate)


class TestPortfolioEviction:
    """The LRU bound covers portfolio entries like any other."""

    def test_compiling_past_the_bound_evicts_oldest(self, db, monkeypatch):
        from repro.engine import invariants as invariants_module

        monkeypatch.setattr(invariants_module, "CACHE_MAX_DESIGNS", 2)
        first = (a11("65nm"),)
        oldest = compile_portfolio(first, db)
        compile_portfolio((a11("40nm"),), db)
        assert invariant_cache_info()["evictions"] == 0
        # A third pinned design pushes past the bound: the oldest goes.
        compile_portfolio((a11("28nm"),), db)
        info = invariant_cache_info()
        assert info["entries"] == 2
        assert info["evictions"] == 1
        # The same design tuple now misses and compiles afresh.
        recompiled = compile_portfolio(first, db)
        assert recompiled is not oldest

    def test_two_large_portfolios_evict_the_first(self, db):
        first = tuple(a11("7nm") for _ in range(200))
        compiled = compile_portfolio(first, db)
        compile_portfolio(tuple(a11("7nm") for _ in range(200)), db)
        info = invariant_cache_info()
        assert info["evictions"] == 1
        assert info["entries"] == 1
        assert compile_portfolio(first, db) is not compiled

    def test_recompilation_after_eviction_is_bit_identical(
        self, db, monkeypatch
    ):
        from repro.engine import invariants as invariants_module

        designs = tuple(a11(node) for node in ("40nm", "7nm"))
        first = compile_portfolio(designs, db)
        monkeypatch.setattr(invariants_module, "CACHE_MAX_DESIGNS", 1)
        compile_portfolio((a11("180nm"),), db)  # evict everything else
        second = compile_portfolio(designs, db)
        assert second is not first
        for field in (
            "node_mask",
            "tapeout_weeks",
            "max_rate",
            "fab_latency_weeks",
            "wafers_per_chip",
            "wafer_cost_usd",
            "sequential_tapeout_weeks",
            "testing_weeks_per_chip",
            "design_weeks",
            "profile_mean_defects",
        ):
            assert np.array_equal(
                getattr(second, field), getattr(first, field)
            )
        assert second.designs == first.designs
        assert second.processes == first.processes

    def test_clear_drops_portfolio_entries(self, db):
        designs = (a11("28nm"), a11("7nm"))
        compiled = compile_portfolio(designs, db)
        assert invariant_cache_info()["entries"] == 1
        clear_invariant_cache()
        assert invariant_cache_info() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
        }
        recompiled = compile_portfolio(designs, db)
        assert recompiled is not compiled
        assert np.array_equal(
            recompiled.tapeout_weeks, compiled.tapeout_weeks
        )
