"""The row-batched summary kernel against the per-row oracle.

:func:`~repro.montecarlo.results.summarize_block` reduces a (rows x
samples) block of one metric in one pass. Its contract is exact: every
field of every row's summary and curve equals what the per-row code
below computes on that row (``==``, not approx), and equals the result
of summarizing that row alone, whatever else shares its block. The
oracle is the per-row implementation the kernel replaced, kept verbatim
apart from its validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.montecarlo.results import (
    PERCENTILES,
    ExceedanceCurve,
    MetricSummary,
    conditional_value_at_risk,
    summarize_block,
    summarize_cells,
)
from repro.obs.instrument import GUARD_TRIPS


def oracle_summary(name, samples, tail, tail_level, percentiles):
    values = np.asarray(samples, dtype=float).ravel()
    if tail == "upper":
        var = float(np.percentile(values, 100.0 * tail_level))
        tail_values = values[values >= var]
    else:
        var = float(np.percentile(values, 100.0 * (1.0 - tail_level)))
        tail_values = values[values <= var]
    return MetricSummary(
        name=name,
        n_samples=int(values.size),
        mean=float(np.mean(values)),
        std=float(np.std(values)),
        minimum=float(np.min(values)),
        maximum=float(np.max(values)),
        percentiles={
            float(p): float(np.percentile(values, p)) for p in percentiles
        },
        tail=tail,
        tail_level=tail_level,
        var=var,
        cvar=float(np.mean(tail_values)),
    )


def oracle_curve(name, samples, n_points):
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    grid = np.linspace(values[0], values[-1], n_points)
    above = values.size - np.searchsorted(values, grid, side="right")
    return ExceedanceCurve(
        name=name,
        thresholds=tuple(float(t) for t in grid),
        probabilities=tuple(float(c) / values.size for c in above),
    )


def make_row(kind, seed, n_samples, loc, scale):
    """One row: spread, heavily tied, constant, or small integers."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(loc, scale, n_samples)
    if kind == "ties":
        palette = loc + scale * rng.normal(size=3)
        return rng.choice(palette, n_samples)
    if kind == "constant":
        return np.full(n_samples, loc)
    return rng.integers(-3, 4, n_samples).astype(float)


row_specs = st.tuples(
    st.sampled_from(("normal", "ties", "constant", "integers")),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=1e-9, max_value=1e4),
)


@st.composite
def blocks(draw):
    n_samples = draw(st.integers(min_value=1, max_value=600))
    specs = draw(st.lists(row_specs, min_size=1, max_size=8))
    block = np.stack(
        [make_row(kind, seed, n_samples, loc, scale)
         for kind, seed, loc, scale in specs]
    )
    if draw(st.sampled_from(("C", "F"))) == "F":
        block = np.asfortranarray(block)
    return block


tails = st.sampled_from(("upper", "lower"))
tail_levels = st.floats(
    min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True
)
curve_points = st.integers(min_value=2, max_value=64)
bands = st.one_of(
    st.just(PERCENTILES),
    st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6),
)


class TestKernelEqualsPerRowOracle:
    @settings(max_examples=150, deadline=None)
    @given(block=blocks(), tail=tails, tail_level=tail_levels,
           n_points=curve_points, band=bands)
    def test_every_row_matches_oracle_and_its_solo_result(
        self, block, tail, tail_level, n_points, band
    ):
        rows = summarize_block(
            "m", block, tail=tail, tail_level=tail_level,
            percentiles=band, curve_points=n_points,
        )
        assert len(rows) == block.shape[0]
        for r, (summary, curve) in enumerate(rows):
            row = block[r]
            assert summary == oracle_summary(
                "m", row, tail, tail_level, band
            )
            assert curve == oracle_curve("m", row, n_points)
            solo = summarize_block(
                "m", block[r:r + 1], tail=tail, tail_level=tail_level,
                percentiles=band, curve_points=n_points,
            )
            assert solo == [(summary, curve)]

    @settings(max_examples=50, deadline=None)
    @given(block=blocks(), tail=tails, tail_level=tail_levels,
           n_points=curve_points)
    def test_one_row_entry_points_match_oracle(
        self, block, tail, tail_level, n_points
    ):
        row = block[0]
        assert MetricSummary.from_samples(
            "m", row, tail=tail, tail_level=tail_level
        ) == oracle_summary("m", row, tail, tail_level, PERCENTILES)
        assert ExceedanceCurve.from_samples(
            "m", row, n_points=n_points
        ) == oracle_curve("m", row, n_points)
        assert conditional_value_at_risk(
            row, tail_level, tail=tail
        ) == oracle_summary("m", row, tail, tail_level, ()).cvar

    @pytest.mark.parametrize("n_points", [10, 33, 50])
    def test_constant_row_leaves_other_grids_alone(self, n_points):
        rng = np.random.default_rng(5)
        block = np.stack([rng.normal(40.0, 3.0, 257), np.full(257, 7.0)])
        rows = summarize_block("m", block, curve_points=n_points)
        assert rows[0][1] == oracle_curve("m", block[0], n_points)
        assert rows[1][1] == oracle_curve("m", block[1], n_points)

    def test_cells_transpose_metrics_per_row(self):
        rng = np.random.default_rng(6)
        blocks_by_metric = {
            "ttm_weeks": rng.normal(40.0, 3.0, (3, 100)),
            "cas": rng.normal(2e4, 1e3, (3, 100)),
        }
        cells = summarize_cells(
            blocks_by_metric, {"cas": "lower"}, curve_points=9
        )
        assert len(cells) == 3
        for r, (summaries, curves) in enumerate(cells):
            assert list(summaries) == list(curves) == ["ttm_weeks", "cas"]
            for name, block in blocks_by_metric.items():
                tail = "lower" if name == "cas" else "upper"
                assert summaries[name] == oracle_summary(
                    name, block[r], tail, 0.95, PERCENTILES
                )
                assert curves[name] == oracle_curve(name, block[r], 9)


class TestKernelValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_raises_and_trips_guard(self, bad):
        block = np.ones((3, 10))
        block[2, 4] = bad
        before = GUARD_TRIPS.value(guard="metric_summary")
        with pytest.raises(InvalidParameterError, match="non-finite"):
            summarize_block("x", block)
        assert GUARD_TRIPS.value(guard="metric_summary") == before + 1

    @pytest.mark.parametrize(
        "row",
        [
            [1e308, 1e308, 1e308, 1e308],  # the sum overflows: mean
            [1e308, -1e308, 1e308, -1e308],  # squares overflow: std
            [1.7e308, -1.7e308, 0.0, 0.0],  # the range overflows
        ],
    )
    def test_overflowing_row_raises_and_trips_guard(self, row):
        block = np.ones((3, 4))
        block[1] = row
        before = GUARD_TRIPS.value(guard="metric_summary")
        with pytest.raises(InvalidParameterError, match="'ttm'.*row 1"):
            summarize_block("ttm", block)
        assert GUARD_TRIPS.value(guard="metric_summary") == before + 1

    def test_huge_rows_with_finite_moments_still_summarize(self):
        # Squared deviations near 1e305 and a mean near 1e307 still fit.
        block = np.array([[1e153, 2e153, 3e153], [1e307, 1e307, 1e307]])
        (first, _), (second, _) = summarize_block("x", block)
        assert first.mean == pytest.approx(2e153)
        assert np.isfinite(first.std) and first.maximum == 3e153
        assert (second.mean, second.std) == (1e307, 0.0)

    def test_rejects_bad_shapes_and_options(self):
        with pytest.raises(InvalidParameterError, match="rows x samples"):
            summarize_block("x", np.ones(4))
        with pytest.raises(InvalidParameterError, match="no samples"):
            summarize_block("x", np.ones((2, 0)))
        with pytest.raises(InvalidParameterError, match="tail"):
            summarize_block("x", np.ones((1, 4)), tail="sideways")
        with pytest.raises(InvalidParameterError, match="tail level"):
            summarize_block("x", np.ones((1, 4)), tail_level=1.0)
        with pytest.raises(InvalidParameterError, match="grid"):
            summarize_block("x", np.ones((1, 4)), curve_points=1)
        for bad in (np.nan, -1.0, 101.0):
            with pytest.raises(
                InvalidParameterError, match=f"percentiles .* got {bad}"
            ):
                summarize_block(
                    "x", np.ones((1, 4)), percentiles=(50.0, bad)
                )

    def test_empty_block_has_no_rows(self):
        assert summarize_block("x", np.ones((0, 4))) == []
