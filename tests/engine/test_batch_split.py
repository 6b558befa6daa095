"""Equivalence and contract tests for the vectorized split engine.

The batch engine's only job is to reproduce the scalar Sec. 7 oracle
(:func:`repro.multiprocess.allocation.evaluate_allocation`, through
``tests/split_oracle.py``) faster: every (pair, split) tensor cell must
match the scalar evaluation to 1e-9 relative error across the Raven
node set, including the degenerate single-process cells (split >= 1.0
and the diagonal). Each stage reads its production
lines from one line table, and every line it reads equals that line's
own one-design ``evaluate`` bit for bit.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from repro.agility.derivative import DEFAULT_RELATIVE_STEP
from repro.design.library.raven import raven_multicore
from repro.design.library.zen2 import zen2
from repro.engine.batch_split import (
    DEFAULT_REFINE_POINTS,
    _LineEngine,
    batch_split,
    batch_split_samples,
)
from repro.errors import InvalidParameterError
from repro.market.conditions import MarketConditions
from repro.multiprocess.optimizer import run_split_study
from repro.multiprocess.split import ProductionSplit, single_process_plan
from repro.engine.scenario import evaluate
from tests.split_oracle import (
    grid_refined_best,
    refine_split_grid,
    scalar_best,
    scalar_evaluation,
)

RELATIVE_TOLERANCE = 1e-9

#: A representative slice of the production roadmap, old and new nodes.
NODES = ("250nm", "130nm", "65nm", "40nm", "28nm", "14nm", "7nm")

#: Pairs covering both orderings, the diagonal, and far-apart nodes.
PAIRS = (
    ("28nm", "40nm"),
    ("40nm", "28nm"),
    ("7nm", "250nm"),
    ("14nm", "65nm"),
    ("65nm", "130nm"),
    ("28nm", "28nm"),
)

#: Grid hitting interior splits, near-degenerate ones, and exactly 1.0.
GRID = (0.02, 0.25, 0.5, 0.6, 0.75, 0.99, 1.0)

N_CHIPS = 1e7


def _relative(actual, expected):
    return abs(actual - expected) / max(abs(expected), 1e-30)


@pytest.fixture(scope="module")
def grid_result(model, cost_model):
    return batch_split(
        raven_multicore, PAIRS, model, cost_model, N_CHIPS, split_grid=GRID
    )


class TestScalarEquivalence:
    @pytest.mark.parametrize("pair_index,pair", list(enumerate(PAIRS)))
    def test_every_cell_matches_the_oracle(
        self, grid_result, model, cost_model, pair_index, pair
    ):
        primary, secondary = pair
        for split_index, split in enumerate(GRID):
            scalar = scalar_evaluation(
                raven_multicore, primary, secondary, split, model,
                cost_model, N_CHIPS,
            )
            batched = grid_result.evaluation(pair_index, split_index)
            assert batched.primary == scalar.primary
            assert batched.secondary == scalar.secondary
            assert batched.split == scalar.split
            for attr in ("ttm_weeks", "cost_usd", "cas"):
                assert _relative(
                    getattr(batched, attr), getattr(scalar, attr)
                ) <= RELATIVE_TOLERANCE, (pair, split, attr)
            assert set(batched.line_weeks) == set(scalar.line_weeks)
            for node, weeks in scalar.line_weeks.items():
                assert _relative(
                    batched.line_weeks[node], weeks
                ) <= RELATIVE_TOLERANCE

    def test_full_node_set_best_splits_match_oracle(self, model, cost_model):
        # The whole Raven production-pair sweep: batched per-pair optima
        # must coincide with the scalar argmax (same cell, not merely a
        # close value) under the exact (cas, -ttm) tie-breaking.
        grid = tuple(s / 10.0 for s in range(1, 11))
        pairs = [
            (NODES[j], NODES[i])
            for i in range(len(NODES))
            for j in range(i, len(NODES))
        ]
        result = batch_split(
            raven_multicore, pairs, model, cost_model, N_CHIPS, split_grid=grid
        )
        for index, (primary, secondary) in enumerate(pairs):
            oracle = scalar_best(
                raven_multicore, primary, secondary, grid, model,
                cost_model, N_CHIPS,
            )
            batched_best = result.best_evaluation(index)
            assert batched_best.split == oracle.split
            assert _relative(batched_best.cas, oracle.cas) <= RELATIVE_TOLERANCE

    def test_with_cas_false_skips_cas(self, model, cost_model):
        result = batch_split(
            raven_multicore,
            [("28nm", "40nm")],
            model,
            cost_model,
            N_CHIPS,
            split_grid=(0.5,),
            with_cas=False,
        )
        assert result.cas[0, 0] == 0.0
        scalar = scalar_evaluation(
            raven_multicore, "28nm", "40nm", 0.5, model, cost_model,
            N_CHIPS, with_cas=False,
        )
        assert _relative(
            result.ttm_weeks[0, 0], scalar.ttm_weeks
        ) <= RELATIVE_TOLERANCE


class TestGridResultStructure:
    def test_shapes_and_masks(self, grid_result):
        shape = (len(PAIRS), len(GRID))
        for array in (
            grid_result.ttm_weeks,
            grid_result.cost_usd,
            grid_result.cas,
            grid_result.splits,
        ):
            assert array.shape == shape
        # Diagonal pair: every cell single; off-diagonal: only split=1.0.
        diagonal = grid_result.pair_index("28nm", "28nm")
        assert bool(grid_result.single_mask[diagonal].all())
        first = grid_result.pair_index("28nm", "40nm")
        assert list(grid_result.single_mask[first]) == [
            s >= 1.0 for s in GRID
        ]
        assert np.all(np.isnan(grid_result.line_weeks_secondary[diagonal]))

    def test_pair_index_rejects_unknown_pair(self, grid_result):
        with pytest.raises(InvalidParameterError, match="not in this grid"):
            grid_result.pair_index("5nm", "3nm")

    def test_ttm_is_max_of_line_weeks(self, grid_result):
        two = ~grid_result.single_mask
        assert np.allclose(
            grid_result.ttm_weeks[two],
            np.maximum(
                grid_result.line_weeks_primary[two],
                grid_result.line_weeks_secondary[two],
            ),
        )


class TestValidation:
    def test_rejects_empty_pairs(self, model, cost_model):
        with pytest.raises(InvalidParameterError, match="at least one"):
            batch_split(raven_multicore, [], model, cost_model, N_CHIPS)

    def test_rejects_empty_grid(self, model, cost_model):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            batch_split(
                raven_multicore,
                [("28nm", "40nm")],
                model,
                cost_model,
                N_CHIPS,
                split_grid=(),
            )

    def test_rejects_out_of_range_split(self, model, cost_model):
        with pytest.raises(InvalidParameterError, match="split must be in"):
            batch_split(
                raven_multicore,
                [("28nm", "40nm")],
                model,
                cost_model,
                N_CHIPS,
                split_grid=(0.0, 0.5),
            )

    def test_rejects_nonpositive_chips(self, model, cost_model):
        with pytest.raises(InvalidParameterError, match="positive"):
            batch_split(
                raven_multicore, [("28nm", "40nm")], model, cost_model, 0.0
            )

    def test_rejects_mismatched_per_pair_grid(self, model, cost_model):
        with pytest.raises(InvalidParameterError, match="rows"):
            batch_split(
                raven_multicore,
                [("28nm", "40nm")],
                model,
                cost_model,
                N_CHIPS,
                split_grid=np.full((3, 4), 0.5),
            )

    def test_rejects_higher_dimensional_grid(self, model, cost_model):
        with pytest.raises(InvalidParameterError, match="1-D"):
            batch_split(
                raven_multicore,
                [("28nm", "40nm")],
                model,
                cost_model,
                N_CHIPS,
                split_grid=np.full((1, 2, 3), 0.5),
            )

    @pytest.mark.parametrize("step", (0.0, 1.0, -0.1))
    def test_rejects_bad_relative_step(self, model, cost_model, step):
        with pytest.raises(InvalidParameterError, match="relative step"):
            batch_split(
                raven_multicore,
                [("28nm", "40nm")],
                model,
                cost_model,
                N_CHIPS,
                split_grid=(0.5,),
                relative_step=step,
            )

    def test_sample_kernel_rejects_bad_relative_step(self, model):
        plan = ProductionSplit(raven_multicore, "28nm", "40nm", 0.5)
        with pytest.raises(InvalidParameterError, match="relative step"):
            batch_split_samples(
                plan, model, np.array([N_CHIPS]), relative_step=1.5
            )


class TestRefinement:
    """The grid refiner the exact refinement is checked against
    (``tests/split_oracle.py``)."""

    def test_fine_grid_brackets_each_coarse_optimum(
        self, grid_result, model, cost_model
    ):
        fine = refine_split_grid(grid_result)
        assert fine.shape == (len(PAIRS), DEFAULT_REFINE_POINTS)
        for i in range(len(PAIRS)):
            if bool(grid_result.single_mask[i].all()):
                assert np.all(fine[i] == 1.0)
                continue
            best = grid_result.splits[i][grid_result.best_index(i)]
            assert fine[i].min() <= best <= fine[i].max()
            assert np.all((fine[i] > 0.0) & (fine[i] <= 1.0))

    def test_refined_optimum_is_no_worse(self, model, cost_model):
        pairs = [("28nm", "40nm")]
        coarse = batch_split(
            raven_multicore,
            pairs,
            model,
            cost_model,
            N_CHIPS,
            split_grid=tuple(s / 10.0 for s in range(1, 11)),
        )
        fine = batch_split(
            raven_multicore,
            pairs,
            model,
            cost_model,
            N_CHIPS,
            split_grid=refine_split_grid(coarse),
        )
        assert fine.best_evaluation(0).cas >= coarse.best_evaluation(0).cas

    def test_rejects_degenerate_point_count(self, grid_result):
        with pytest.raises(InvalidParameterError, match="at least 2"):
            refine_split_grid(grid_result, points=1)


class TestSampledSplits:
    def test_constant_samples_match_scalar(self, model, cost_model):
        plan = ProductionSplit(raven_multicore, "28nm", "40nm", 0.6)
        outcome = batch_split_samples(
            plan,
            model,
            np.full(4, N_CHIPS),
            cost_model=cost_model,
        )
        scalar = scalar_evaluation(
            raven_multicore, "28nm", "40nm", 0.6, model, cost_model, N_CHIPS
        )
        assert np.all(
            np.abs(outcome.ttm_weeks - scalar.ttm_weeks)
            <= RELATIVE_TOLERANCE * scalar.ttm_weeks
        )
        assert np.all(
            np.abs(outcome.cas - scalar.cas)
            <= RELATIVE_TOLERANCE * scalar.cas
        )
        assert np.all(
            np.abs(outcome.cost_usd - scalar.cost_usd)
            <= RELATIVE_TOLERANCE * scalar.cost_usd
        )
        for node, weeks in scalar.line_weeks.items():
            assert np.all(
                np.abs(outcome.line_weeks[node] - weeks)
                <= RELATIVE_TOLERANCE * weeks
            )

    def test_sampled_factors_move_the_outcome(self, model, cost_model):
        plan = ProductionSplit(raven_multicore, "28nm", "40nm", 0.6)
        base = batch_split_samples(plan, model, np.array([N_CHIPS]))
        squeezed = batch_split_samples(
            plan,
            model,
            np.array([N_CHIPS]),
            capacity={"28nm": np.array([0.25])},
            queue_weeks=np.array([4.0]),
        )
        assert squeezed.ttm_weeks[0] > base.ttm_weeks[0]

    def test_no_cost_model_leaves_cost_none(self, model):
        plan = ProductionSplit(raven_multicore, "28nm", "40nm", 0.5)
        outcome = batch_split_samples(plan, model, np.array([N_CHIPS]))
        assert outcome.cost_usd is None
        assert outcome.usd_per_chip is None

    @pytest.mark.parametrize("plan_nodes", [("28nm", "40nm"), ("28nm",)])
    def test_one_ttm_and_one_cost_call(
        self, model, cost_model, monkeypatch, plan_nodes
    ):
        # Every production line, under the base supply and both CAS
        # steps of each node, rides in one line table: one TTM call and
        # one cost call, not one per line or per capacity map.
        calls = Counter()

        def counted(*args, **kwargs):
            calls[args[3]] += 1
            return evaluate(*args, **kwargs)

        split_module = importlib.import_module("repro.engine.batch_split")
        monkeypatch.setattr(split_module, "evaluate", counted)
        if len(plan_nodes) == 2:
            plan = ProductionSplit(raven_multicore, *plan_nodes, 0.6)
        else:
            plan = single_process_plan(raven_multicore, *plan_nodes)
        batch_split_samples(
            plan, model, np.full(8, N_CHIPS), cost_model=cost_model
        )
        assert calls == {("ttm",): 1, ("cost",): 1}

    @pytest.mark.parametrize("n_chips", [N_CHIPS, np.linspace(1e6, 1e8, 5)])
    def test_lines_equal_their_one_design_calls(
        self, model, cost_model, n_chips
    ):
        # A scalar demand stays a (lines, 1) block, never a sample axis.
        plan = ProductionSplit(raven_multicore, "28nm", "40nm", 0.6)
        outcome = batch_split_samples(
            plan, model, n_chips, cost_model=cost_model
        )
        cost = 0.0
        for node, fraction in plan.allocations.items():
            design = (plan.design_factory(node),)
            line = evaluate(model, design, n_chips * fraction, ("ttm",))
            weeks = line.ttm.total_weeks[0, 0]
            assert np.array_equal(
                outcome.line_weeks[node],
                np.broadcast_to(weeks, outcome.ttm_weeks.shape),
            )
            cost = cost + evaluate(
                model,
                design,
                n_chips * fraction,
                ("cost",),
                cost_model=cost_model,
            ).cost.total_usd[0, 0]
        assert np.array_equal(
            outcome.cost_usd, np.broadcast_to(cost, outcome.ttm_weeks.shape)
        )

    def test_zero_capacity_raises(self, model):
        plan = ProductionSplit(raven_multicore, "28nm", "40nm", 0.5)
        with pytest.raises(InvalidParameterError, match="capacity"):
            batch_split_samples(
                plan,
                model,
                np.array([N_CHIPS]),
                capacity={"28nm": np.array([0.0])},
            )


class TestExactRefinement:
    """Satellite: the breakpoint solver vs the grid it replaces.

    Within a coarse bracket each line's completion weeks are affine in
    the primary fraction, so the TTM/CAS optimum sits on a breakpoint of
    a piecewise-affine function — ``refine_split_exact`` enumerates
    those breakpoints instead of carpeting the bracket with a grid. Its
    candidates must therefore never score worse than any finite grid.
    """

    @pytest.fixture(scope="class")
    def exact(self, grid_result, model, cost_model):
        from repro.engine.batch_split import refine_split_exact

        return refine_split_exact(
            grid_result, raven_multicore, model, cost_model
        )

    def test_candidates_stay_inside_the_coarse_bracket(
        self, exact, grid_result
    ):
        assert exact.ndim == 2 and exact.shape[0] == len(PAIRS)
        for i in range(len(PAIRS)):
            assert np.all((exact[i] > 0.0) & (exact[i] <= 1.0))
            if bool(grid_result.single_mask[i].all()):
                assert np.all(exact[i] == 1.0)
                continue
            best = grid_result.splits[i][grid_result.best_index(i)]
            assert exact[i].min() <= best <= exact[i].max()

    def test_exact_is_no_worse_than_the_grid_refine(
        self, exact, grid_result, model, cost_model
    ):
        fine_grid = batch_split(
            raven_multicore,
            PAIRS,
            model,
            cost_model,
            N_CHIPS,
            split_grid=refine_split_grid(grid_result),
        )
        fine_exact = batch_split(
            raven_multicore,
            PAIRS,
            model,
            cost_model,
            N_CHIPS,
            split_grid=exact,
        )
        for i in range(len(PAIRS)):
            assert (
                fine_exact.best_evaluation(i).cas
                >= fine_grid.best_evaluation(i).cas - 1e-12
            )

    def test_bracket_reaching_full_split_takes_the_fine_grid(self):
        # A coarse optimum next to split 1.0 brackets up to it, where
        # the secondary line vanishes. Such a pair takes the fine grid
        # (no line is probed at a zero fraction) and so scores exactly
        # as the grid-refined oracle does.
        from repro.cost.model import CostModel
        from repro.engine.batch_split import _bracket
        from repro.ttm.model import TTMModel

        nodes = ("250nm", "40nm", "28nm", "7nm")
        model, cost_model = TTMModel.nominal(), CostModel.nominal()
        keys = [(p, s) for i, s in enumerate(nodes) for p in nodes[i:]]
        exact = run_split_study(
            raven_multicore, nodes, model, cost_model, N_CHIPS,
            split_grid=GRID, refine=True,
        )
        grid = dict(zip(keys, grid_refined_best(
            raven_multicore, keys, model, cost_model, N_CHIPS, GRID
        )))
        coarse = batch_split(
            raven_multicore, keys, model, cost_model, N_CHIPS,
            split_grid=GRID,
        )
        reaching = [
            coarse.pairs[i]
            for i in range(coarse.n_pairs)
            if not coarse.single_mask[i].all()
            and _bracket(coarse, i)[1] >= 1.0
        ]
        assert reaching
        for key in reaching:
            assert exact.pairs[key].best == grid[key]

    def test_exact_matches_a_dense_grid_oracle(self, model, cost_model):
        # A 2001-point dense carpet of one pair's bracket cannot beat
        # the breakpoint candidates: the optimum is exact, not sampled.
        from repro.engine.batch_split import refine_split_exact

        pairs = [("28nm", "40nm")]
        coarse = batch_split(
            raven_multicore,
            pairs,
            model,
            cost_model,
            N_CHIPS,
            split_grid=tuple(s / 20.0 for s in range(1, 21)),
        )
        exact = refine_split_exact(
            coarse, raven_multicore, model, cost_model
        )
        lo, hi = exact[0].min(), exact[0].max()
        dense = batch_split(
            raven_multicore,
            pairs,
            model,
            cost_model,
            N_CHIPS,
            split_grid=np.linspace(lo, hi, 2001).reshape(1, -1),
        )
        refined = batch_split(
            raven_multicore, pairs, model, cost_model, N_CHIPS,
            split_grid=exact,
        )
        assert (
            refined.best_evaluation(0).cas
            >= dense.best_evaluation(0).cas - 1e-12
        )


#: Fig. 14's volume and 2 % split grid, on a slice of its nodes.
LINE_CHIPS = 1e9
LINE_GRID = tuple(s / 100.0 for s in range(2, 101, 2))
LINE_NODES = ("250nm", "40nm", "28nm", "7nm")


def _one_design_line(
    model, cost_model, kind, node, fractions, perturb, sign,
    factory=raven_multicore, n_chips=LINE_CHIPS,
):
    """Lines as their own one-design ``evaluate`` call: one row per
    fraction, one column for the one supply sample."""
    design = factory(node)
    chips = n_chips * fractions
    if kind == "cost":
        return evaluate(
            model, (design,), chips, ("cost",), cost_model=cost_model
        ).cost.total_usd[0, 0].reshape(np.shape(chips) + (1,))
    capacity = None
    if perturb is not None and perturb in design.processes:
        # The scalar CAS's rate -> fraction round trip.
        max_rate = model.foundry.technology[perturb].max_wafer_rate_per_week
        rate = model.foundry.conditions.capacity_for(perturb) * max_rate
        step = rate * DEFAULT_RELATIVE_STEP
        capacity = {perturb: (rate + sign * step) / max_rate}
    return evaluate(
        model, (design,), chips, ("ttm",), capacity=capacity
    ).ttm.total_weeks[0, 0].reshape(np.shape(chips) + (1,))


class TestLineTable:
    """Every line a stage reads from its one line table equals the line's
    own one-design ``evaluate``, bit for bit — on the coarse grid and
    after the exact refinement, under nominal and under queued,
    capacity-reduced conditions, and in the Monte Carlo plan study under
    sampled supply."""

    @pytest.fixture
    def reads(self, monkeypatch):
        recorded = []
        totals, costs = _LineEngine.totals, _LineEngine.costs

        def read_totals(engine, node, columns, perturb=None, sign=0):
            weeks = totals(engine, node, columns, perturb, sign)
            fractions = engine._fractions[node][columns]
            recorded.append(("ttm", node, fractions, perturb, sign, weeks))
            return weeks

        def read_costs(engine, node, columns):
            usd = costs(engine, node, columns)
            fractions = engine._fractions[node][columns]
            recorded.append(("cost", node, fractions, None, 0, usd))
            return usd

        monkeypatch.setattr(_LineEngine, "totals", read_totals)
        monkeypatch.setattr(_LineEngine, "costs", read_costs)
        return recorded

    @pytest.fixture(params=["nominal", "queued"])
    def line_model(self, request, model):
        if request.param == "nominal":
            return model
        conditions = (
            MarketConditions.nominal()
            .with_capacity("7nm", 0.6)
            .with_capacity("40nm", 0.8)
            .with_queue("28nm", 3.0)
            .with_queue("7nm", 1.0)
        )
        return model.with_foundry(model.foundry.with_conditions(conditions))

    @pytest.mark.parametrize("refine", [False, True])
    def test_every_read_line_equals_its_one_design_call(
        self, reads, line_model, cost_model, refine
    ):
        run_split_study(
            raven_multicore,
            LINE_NODES,
            line_model,
            cost_model,
            LINE_CHIPS,
            split_grid=LINE_GRID,
            refine=refine,
        )
        kinds = {kind for kind, *_ in reads}
        assert kinds == {"ttm", "cost"}
        for kind, node, fractions, perturb, sign, got in reads:
            expected = _one_design_line(
                line_model, cost_model, kind, node, fractions, perturb, sign
            )
            assert np.array_equal(
                np.asarray(got).view(np.int64),
                np.asarray(expected).view(np.int64),
            ), (kind, node, perturb, sign)

    def test_two_die_design_lines_equal_their_one_design_calls(
        self, reads, model, cost_model
    ):
        # Ported Zen 2 keeps its I/O die on 14 nm, so the designs share
        # that node and not every node's CAS step can share one block
        # pair: each line must still see only the stepped node move.
        def zen2_on(node):
            return zen2(io_process="14nm", compute_process=node)

        batch_split(
            zen2_on,
            [("7nm", "28nm"), ("5nm", "7nm"), ("7nm", "14nm")],
            model,
            cost_model,
            N_CHIPS,
            split_grid=GRID,
        )
        assert {kind for kind, *_ in reads} == {"ttm", "cost"}
        for kind, node, fractions, perturb, sign, got in reads:
            expected = _one_design_line(
                model, cost_model, kind, node, fractions, perturb, sign,
                factory=zen2_on, n_chips=N_CHIPS,
            )
            assert np.array_equal(
                np.asarray(got).view(np.int64),
                np.asarray(expected).view(np.int64),
            ), (kind, node, perturb, sign)

    @pytest.mark.parametrize("plan_nodes", [("28nm", "40nm"), ("28nm",)])
    def test_sampled_plan_lines_equal_their_one_design_calls(
        self, reads, model, cost_model, plan_nodes
    ):
        # The plan study lays its sampled supply on the line table's
        # sample axis beside the base and CAS-step blocks; each line it
        # reads is still its own one-design call under that supply.
        rng = np.random.default_rng(3)
        size = 16
        supply = {
            "capacity": {
                node: rng.uniform(0.5, 1.0, size) for node in ("28nm", "40nm")
            },
            "queue_weeks": rng.uniform(0.0, 4.0, size),
            "d0_scale": rng.uniform(0.9, 1.1, size),
            "wafer_rate_scale": rng.uniform(0.9, 1.1, size),
        }
        n_chips = rng.uniform(5e6, 2e7, size)
        if len(plan_nodes) == 2:
            plan = ProductionSplit(raven_multicore, *plan_nodes, 0.6)
        else:
            plan = single_process_plan(raven_multicore, *plan_nodes)
        batch_split_samples(
            plan, model, n_chips, cost_model=cost_model, **supply
        )
        assert {kind for kind, *_ in reads} == {"ttm", "cost"}
        for kind, node, fractions, perturb, sign, got in reads:
            design = (raven_multicore(node),)
            chips = n_chips * fractions[0]
            if kind == "cost":
                expected = evaluate(
                    model, design, chips, ("cost",),
                    d0_scale=supply["d0_scale"], cost_model=cost_model,
                ).cost.total_usd[0]
            else:
                capacity = dict(supply["capacity"])
                if perturb is not None and perturb in design[0].processes:
                    # The scalar CAS's rate -> fraction round trip, at
                    # each sample's capacity and wafer-rate scale.
                    scaled = (
                        model.foundry.technology[perturb]
                        .max_wafer_rate_per_week
                        * supply["wafer_rate_scale"]
                    )
                    rate = capacity[perturb] * scaled
                    step = rate * DEFAULT_RELATIVE_STEP
                    capacity[perturb] = (rate + sign * step) / scaled
                expected = evaluate(
                    model, design, chips, ("ttm",),
                    **{**supply, "capacity": capacity},
                ).ttm.total_weeks[0]
            assert np.array_equal(
                np.asarray(got).view(np.int64),
                np.asarray(expected).view(np.int64),
            ), (kind, node, perturb, sign)

    @pytest.mark.parametrize(
        "refine, ttm_calls, cost_calls",
        [(False, 1, 1), (True, 3, 2)],
    )
    def test_one_kernel_call_per_stage_and_metric(
        self, model, cost_model, monkeypatch, refine, ttm_calls, cost_calls
    ):
        # A line evaluated on its own would add a call per line.
        calls = Counter()

        def counted(*args, **kwargs):
            calls[args[3]] += 1
            return evaluate(*args, **kwargs)

        # ``repro.engine.batch_split`` names the function, so the module
        # is looked up by path.
        split_module = importlib.import_module("repro.engine.batch_split")
        monkeypatch.setattr(split_module, "evaluate", counted)
        run_split_study(
            raven_multicore,
            LINE_NODES,
            model,
            cost_model,
            LINE_CHIPS,
            split_grid=LINE_GRID,
            refine=refine,
        )
        assert calls == {("ttm",): ttm_calls, ("cost",): cost_calls}
