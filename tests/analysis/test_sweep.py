"""Tests for the sweep helpers."""

import pytest

from repro.analysis.sweep import (
    argmax,
    argmin,
    capacity_fractions,
    chip_quantities,
    normalized,
    sweep,
    sweep_pairs,
)
from repro.errors import InvalidParameterError


class TestCapacityFractions:
    def test_endpoints_and_count(self):
        fractions = capacity_fractions(0.2, 1.0, 5)
        assert fractions == pytest.approx((0.2, 0.4, 0.6, 0.8, 1.0))

    def test_strictly_positive(self):
        assert all(f > 0 for f in capacity_fractions())

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            capacity_fractions(0.0, 1.0, 5)
        with pytest.raises(InvalidParameterError):
            capacity_fractions(0.5, 0.2, 5)
        with pytest.raises(InvalidParameterError):
            capacity_fractions(count=1)


class TestChipQuantities:
    def test_paper_volumes(self):
        assert chip_quantities() == (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


class TestNormalized:
    def test_peak_becomes_one(self):
        assert normalized([1.0, 2.0, 4.0]) == pytest.approx([0.25, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            normalized([])
        with pytest.raises(InvalidParameterError):
            normalized([0.0, -1.0])


class TestArgBest:
    def test_argmax(self):
        assert argmax(["a", "bbb", "cc"], key=len) == "bbb"

    def test_argmin(self):
        assert argmin(["a", "bbb", "cc"], key=len) == "a"

    def test_first_winner_kept_on_ties(self):
        assert argmax(["aa", "bb"], key=len) == "aa"

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            argmax([], key=len)


class TestSweep:
    def test_order_preserved(self):
        result = sweep([3, 1, 2], evaluate=lambda x: x * x)
        assert list(result) == [3, 1, 2]
        assert result[2] == 4


class TestSweepPairs:
    def test_pairs_in_order(self):
        pairs = sweep_pairs([3, 1, 2], evaluate=lambda x: x * x)
        assert pairs == ((3, 9), (1, 1), (2, 4))

    def test_duplicate_values_keep_separate_results(self):
        calls = iter(range(10))
        pairs = sweep_pairs([5, 5, 5], evaluate=lambda _: next(calls))
        assert pairs == ((5, 0), (5, 1), (5, 2))

    def test_dict_wrapper_collapses_duplicates_last_wins(self):
        calls = iter(range(10))
        result = sweep([5, 5], evaluate=lambda _: next(calls))
        assert result == {5: 1}
