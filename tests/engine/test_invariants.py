"""Tests for the compiled-table cache (the shared invariant LRU)."""

import numpy as np
import pytest

from repro.design.library.a11 import a11
from repro.design.library.zen2 import fig13_variants
from repro.engine.invariants import (
    CACHE_MAX_DESIGNS,
    clear_invariant_cache,
    invariant_cache_info,
)
from repro.engine.portfolio import _compile, compile_portfolio
from repro.technology.database import TechnologyDatabase
from repro.ttm.model import DEFAULT_ENGINEERS, TTMModel


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_invariant_cache()
    yield
    clear_invariant_cache()


@pytest.fixture(scope="module")
def db():
    return TechnologyDatabase.default()


class TestCaching:
    def test_second_lookup_hits(self, db):
        designs = (a11("7nm"),)
        first = compile_portfolio(designs, db, DEFAULT_ENGINEERS)
        second = compile_portfolio(designs, db, DEFAULT_ENGINEERS)
        assert first is second
        info = invariant_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1

    def test_identity_keying_distinguishes_equal_designs(self, db):
        first = compile_portfolio((a11("7nm"),), db, DEFAULT_ENGINEERS)
        second = compile_portfolio((a11("7nm"),), db, DEFAULT_ENGINEERS)
        # Two calls to a11() build equal but distinct objects; the cache
        # keys on identity, so each gets its own entry.
        assert first is not second
        assert invariant_cache_info()["entries"] == 2

    def test_model_parameters_partition_the_cache(self, db):
        designs = (a11("7nm"),)
        base = compile_portfolio(designs, db, DEFAULT_ENGINEERS)
        bigger_team = compile_portfolio(designs, db, 500)
        corrected = compile_portfolio(
            designs, db, DEFAULT_ENGINEERS, edge_corrected=True
        )
        assert base is not bigger_team
        assert base is not corrected
        assert bigger_team.tapeout_weeks[0, 0] < base.tapeout_weeks[0, 0]
        assert invariant_cache_info()["entries"] == 3

    def test_clear_resets(self, db):
        compile_portfolio((a11("7nm"),), db, DEFAULT_ENGINEERS)
        clear_invariant_cache()
        info = invariant_cache_info()
        assert info == {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}

    def test_lru_eviction_is_bounded(self, db):
        designs = [a11("7nm") for _ in range(CACHE_MAX_DESIGNS + 5)]
        for design in designs:
            compile_portfolio((design,), db, DEFAULT_ENGINEERS)
        info = invariant_cache_info()
        assert info["entries"] == CACHE_MAX_DESIGNS
        assert info["evictions"] == 5

    def test_an_entry_weighs_its_designs(self, db):
        compile_portfolio(
            tuple(a11("7nm") for _ in range(CACHE_MAX_DESIGNS - 1)), db
        )
        compile_portfolio((a11("7nm"),), db)
        assert invariant_cache_info()["evictions"] == 0
        # Two more pinned designs push the total past the bound, so the
        # oldest (largest) entry goes.
        compile_portfolio((a11("28nm"), a11("40nm")), db)
        info = invariant_cache_info()
        assert info["evictions"] == 1
        assert info["entries"] == 2

    def test_newest_entry_always_stays(self, db):
        designs = tuple(a11("7nm") for _ in range(CACHE_MAX_DESIGNS + 40))
        compiled = compile_portfolio(designs, db)
        # Larger than the whole bound, yet the follow-up kernel call of a
        # TTM -> CAS -> cost sequence still hits.
        assert compile_portfolio(designs, db) is compiled
        assert invariant_cache_info()["entries"] == 1


class TestValues:
    def test_matches_uncached_computation(self, db):
        designs = fig13_variants()
        cached = compile_portfolio(designs, db, DEFAULT_ENGINEERS)
        direct = _compile(designs, db, DEFAULT_ENGINEERS, 3.0, False, False)
        assert cached.processes == direct.processes
        for field in ("wafers_per_chip", "tapeout_weeks", "profile_gross"):
            assert np.array_equal(
                getattr(cached, field), getattr(direct, field)
            )

    def test_invariants_reflect_model_semantics(self):
        model = TTMModel.nominal()
        table = compile_portfolio(
            (a11("7nm"),),
            model.foundry.technology,
            model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
        assert table.processes == (("7nm",),)
        assert table.design_weeks[0] == 0.0
        assert table.wafers_per_chip[0, 0] > 0.0
        assert table.max_rate[0, 0] > 0.0
