"""Hypothesis properties of the evaluation call over a portfolio.

Two structural laws the SoA compiler must preserve on *every* input,
beyond the example-based equivalence suite:

* **permutation equivariance** — row ``i`` of the portfolio tensor
  depends only on design ``i`` and the shared samples, so reordering
  the design tuple reorders the rows bit-for-bit (no cross-design
  leakage through the padded node slots);
* **batch-splitting invariance** — evaluating the sample axis in two
  chunks and concatenating equals the single fused pass bit-for-bit
  (chunked Monte-Carlo studies can never drift from a monolithic one).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.library.a11 import a11
from repro.design.library.zen2 import zen2, zen2_monolithic
from repro.engine.scenario import evaluate
from repro.ttm.model import TTMModel

MODEL = TTMModel.nominal()

#: Mixed node counts so padded slots participate in every example.
DESIGN_POOL = (
    a11("7nm"),
    a11("28nm"),
    a11("65nm"),
    zen2(),
    zen2_monolithic("7nm"),
)

N_CHIPS = 2e7

permutations = st.permutations(range(len(DESIGN_POOL)))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
sample_counts = st.integers(min_value=2, max_value=24)


def ttm(model, designs, n_chips, **knobs):
    """Scenario 0 of an ``evaluate`` TTM call, and the design names."""
    evaluation = evaluate(model, designs, n_chips, ("ttm",), **knobs)
    return evaluation.designs, evaluation.ttm.total_weeks[0], (
        evaluation.ttm.fabrication_weeks[0]
    )


def cas(model, designs, n_chips, **knobs):
    """Scenario 0 of an ``evaluate`` CAS call, raw wafers/week^2."""
    return evaluate(model, designs, n_chips, ("cas",), **knobs).cas.cas[0]


def draw_supply(seed, n_samples):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.15, 1.0, n_samples),
        rng.uniform(0.0, 30.0, n_samples),
        rng.uniform(1e6, 1e8, n_samples),
    )


class TestPermutationEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(order=permutations, seed=seeds, n_samples=sample_counts)
    def test_ttm_rows_follow_design_order(self, order, seed, n_samples):
        capacity, queue, demand = draw_supply(seed, n_samples)
        names, total, fabrication = ttm(
            MODEL,
            DESIGN_POOL,
            demand,
            capacity=capacity,
            queue_weeks=queue,
        )
        permuted = ttm(
            MODEL,
            [DESIGN_POOL[i] for i in order],
            demand,
            capacity=capacity,
            queue_weeks=queue,
        )
        assert np.array_equal(permuted[1], total[list(order)])
        assert np.array_equal(permuted[2], fabrication[list(order)])
        assert permuted[0] == tuple(names[i] for i in order)

    @settings(max_examples=10, deadline=None)
    @given(order=permutations, seed=seeds)
    def test_cas_rows_follow_design_order(self, order, seed):
        capacity, _, _ = draw_supply(seed, 6)
        base = cas(MODEL, DESIGN_POOL, N_CHIPS, capacity=capacity)
        permuted = cas(
            MODEL,
            [DESIGN_POOL[i] for i in order],
            N_CHIPS,
            capacity=capacity,
        )
        assert np.array_equal(permuted, base[list(order)])

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, n_samples=sample_counts)
    def test_subset_rows_match_full_portfolio(self, seed, n_samples):
        capacity, queue, demand = draw_supply(seed, n_samples)
        _, full, _ = ttm(
            MODEL, DESIGN_POOL, demand, capacity=capacity, queue_weeks=queue
        )
        pair = (DESIGN_POOL[1], DESIGN_POOL[3])
        _, subset, _ = ttm(
            MODEL, pair, demand, capacity=capacity, queue_weeks=queue
        )
        assert np.array_equal(subset[0], full[1])
        assert np.array_equal(subset[1], full[3])


class TestBatchSplittingInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=seeds,
        n_samples=st.integers(min_value=4, max_value=24),
        data=st.data(),
    )
    def test_chunked_ttm_concatenates_to_single_pass(
        self, seed, n_samples, data
    ):
        split = data.draw(
            st.integers(min_value=1, max_value=n_samples - 1), label="split"
        )
        capacity, queue, demand = draw_supply(seed, n_samples)
        _, whole, _ = ttm(
            MODEL, DESIGN_POOL, demand, capacity=capacity, queue_weeks=queue
        )
        _, head, _ = ttm(
            MODEL,
            DESIGN_POOL,
            demand[:split],
            capacity=capacity[:split],
            queue_weeks=queue[:split],
        )
        _, tail, _ = ttm(
            MODEL,
            DESIGN_POOL,
            demand[split:],
            capacity=capacity[split:],
            queue_weeks=queue[split:],
        )
        assert np.array_equal(np.concatenate([head, tail], axis=1), whole)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_chunked_cas_concatenates_to_single_pass(self, seed):
        capacity, _, _ = draw_supply(seed, 8)
        whole = cas(MODEL, DESIGN_POOL, N_CHIPS, capacity=capacity)
        head = cas(MODEL, DESIGN_POOL, N_CHIPS, capacity=capacity[:3])
        tail = cas(MODEL, DESIGN_POOL, N_CHIPS, capacity=capacity[3:])
        assert np.array_equal(np.concatenate([head, tail], axis=1), whole)
