"""The evaluation call vs the scalar model, cell for cell.

The contract (DESIGN.md S18): cell ``(k, i, s)`` of every ``evaluate``
tensor equals the scalar ``TTMModel`` / ``chip_agility_score`` /
``CostModel`` evaluation of design ``i`` under sample ``s``'s supply
(D0 and wafer-rate draws applied through ``TechnologyDatabase.override``)
transformed by scenario ``k``, to <= 1e-9. ``evaluate`` runs the
engine's one TTM and CAS body, the scenario cube, so the scalar model is
its only independent check. These tests sweep the supply knobs
(capacity as None / global scalar / shared vector / per-node mapping,
queue overrides, defect-density and wafer-rate scales, per-design
demand matrices), draw them over their whole ranges with Hypothesis
(stress scenarios included), mix single- and multi-node designs so the
padded node slots are exercised, and pin the validation errors, the
Eq. 6 yield passes per call and the compile cache behaviour.
"""

import dataclasses
from typing import Mapping

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agility.cas import chip_agility_score
from repro.cost.model import CostModel
from repro.design.library.a11 import a11
from repro.design.library.ariane import (
    ariane_manycore,
    ariane_manycore_salvage,
)
from repro.design.library.zen2 import fig13_variants, zen2, zen2_monolithic
from repro.engine.invariants import (
    clear_invariant_cache,
    invariant_cache_info,
)
from repro.engine.portfolio import (
    PortfolioInvariants,
    compile_portfolio,
    portfolio_fingerprint,
)
from repro.engine.scenario import Scenario, evaluate
from repro.errors import InvalidParameterError
from repro.market.conditions import MarketConditions
from repro.market.foundry import Foundry
from repro.montecarlo.disruption import MIN_CAPACITY_FRACTION
from repro.technology.database import TechnologyDatabase
from repro.ttm.model import TTMModel

TOLERANCE = 1e-9
N_CHIPS = 2.5e7


@pytest.fixture
def mixed_designs():
    """Single-node and multi-node designs in one portfolio (padding)."""
    return (
        a11("7nm"),
        zen2(),  # 7 nm compute + 12 nm I/O chiplets
        zen2_monolithic("7nm"),
        ariane_manycore("28nm", cores=8),
    )


def scaled_technology(technology, d0_scale=None, wafer_rate_scale=None):
    """``technology`` with every node's D0 and max rate scaled."""
    if d0_scale is None and wafer_rate_scale is None:
        return technology
    return technology.override({
        node.name: {
            "defect_density_per_cm2": node.defect_density_per_cm2
            * (1.0 if d0_scale is None else d0_scale),
            "wafer_rate_kwpm": node.wafer_rate_kwpm
            * (1.0 if wafer_rate_scale is None else wafer_rate_scale),
        }
        for node in technology.nodes
    })


def sample_model(
    model,
    capacity=None,
    queue_weeks=None,
    d0_scale=None,
    wafer_rate_scale=None,
):
    """The scalar model under one sample's supply."""
    conditions = model.foundry.conditions
    if isinstance(capacity, Mapping):
        for node, fraction in capacity.items():
            conditions = conditions.with_capacity(node, fraction)
    elif capacity is not None:
        conditions = conditions.with_global_capacity(capacity)
    if queue_weeks is not None:
        conditions = conditions.with_global_queue(queue_weeks)
    technology = scaled_technology(
        model.foundry.technology, d0_scale, wafer_rate_scale
    )
    return model.with_foundry(
        Foundry(technology=technology, conditions=conditions)
    )


def assert_cells(matrix, oracle):
    """Every cell within TOLERANCE of the ``(designs, samples)`` oracle."""
    got, expected = np.broadcast_arrays(
        np.asarray(matrix, dtype=float), np.asarray(oracle, dtype=float)
    )
    assert float(np.max(np.abs(got - expected))) <= TOLERANCE


def assert_relative(matrix, oracle):
    """Every cell within TOLERANCE relative error."""
    np.testing.assert_allclose(
        np.broadcast_arrays(np.asarray(matrix, dtype=float), oracle)[0],
        oracle,
        rtol=TOLERANCE,
        atol=0.0,
    )


def slab(values, k=0):
    """Scenario ``k`` of a cube field as a ``(designs, samples)`` matrix
    (per-design fields are ``(designs,)``)."""
    return values[:, None] if values.ndim == 1 else values[k]


def ttm(model, designs, n_chips, **knobs):
    return evaluate(model, designs, n_chips, ("ttm",), **knobs).ttm


def cas(model, designs, n_chips, **knobs):
    return evaluate(model, designs, n_chips, ("cas",), **knobs).cas


def cost(cost_model, designs, n_chips, **knobs):
    return evaluate(
        TTMModel(foundry=Foundry.nominal(cost_model.technology)),
        designs,
        n_chips,
        ("cost",),
        cost_model=cost_model,
        **knobs,
    ).cost


def capacity_samples(capacity):
    """One scalar capacity (or per-node mapping) per sample."""
    if isinstance(capacity, Mapping):
        width = max(np.size(values) for values in capacity.values())
        return [
            {
                node: float(np.broadcast_to(values, (width,))[j])
                for node, values in capacity.items()
            }
            for j in range(width)
        ]
    return [float(f) for f in np.atleast_1d(capacity)]


class TestTTMEquivalence:
    def test_current_conditions(self, model, mixed_designs):
        result = ttm(model, mixed_designs, N_CHIPS)
        assert result.total_weeks.shape == (1, len(mixed_designs), 1)
        assert_cells(
            slab(result.total_weeks),
            [[model.total_weeks(design, N_CHIPS)] for design in mixed_designs],
        )

    @pytest.mark.parametrize(
        "capacity",
        [
            0.4,
            (0.25, 0.5, 0.75, 1.0),
            {"7nm": 0.3},
            {"7nm": (0.3, 0.6), "12nm": (0.9, 0.5)},
        ],
        ids=["scalar", "vector", "one-node", "per-node-vectors"],
    )
    def test_capacity_forms(self, model, mixed_designs, capacity):
        result = ttm(model, mixed_designs, N_CHIPS, capacity=capacity)
        oracle = [
            [
                sample_model(model, capacity=sample).time_to_market(
                    design, N_CHIPS
                )
                for sample in capacity_samples(capacity)
            ]
            for design in mixed_designs
        ]
        for field in (
            "tapeout_weeks",
            "fabrication_weeks",
            "packaging_weeks",
            "total_weeks",
        ):
            assert_cells(
                slab(getattr(result, field)),
                [[getattr(r, field) for r in row] for row in oracle],
            )
        assert_relative(
            slab(result.total_wafers),
            [[r.total_wafers for r in row] for row in oracle],
        )

    def test_supply_samples(self, model, mixed_designs):
        rng = np.random.default_rng(11)
        samples = 32
        capacity = rng.uniform(0.2, 1.0, samples)
        queue_weeks = rng.uniform(0.0, 25.0, samples)
        d0_scale = rng.uniform(0.5, 2.0, samples)
        rate_scale = rng.uniform(0.6, 1.4, samples)
        result = ttm(
            model,
            mixed_designs,
            N_CHIPS,
            capacity=capacity,
            queue_weeks=queue_weeks,
            d0_scale=d0_scale,
            wafer_rate_scale=rate_scale,
        )
        models = [
            sample_model(
                model,
                capacity=capacity[j],
                queue_weeks=queue_weeks[j],
                d0_scale=d0_scale[j],
                wafer_rate_scale=rate_scale[j],
            )
            for j in range(samples)
        ]
        assert_cells(
            slab(result.total_weeks),
            [
                [m.total_weeks(design, N_CHIPS) for m in models]
                for design in mixed_designs
            ],
        )

    def test_per_design_demand_matrix(self, model, mixed_designs):
        rng = np.random.default_rng(12)
        demand = rng.uniform(1e6, 1e8, (len(mixed_designs), 16))
        result = ttm(model, mixed_designs, demand)
        assert_cells(
            slab(result.total_weeks),
            [
                [model.total_weeks(design, n) for n in demand[i]]
                for i, design in enumerate(mixed_designs)
            ],
        )

    def test_sequential_schedule(self, mixed_designs, model):
        sequential = type(model)(
            foundry=model.foundry, schedule="sequential"
        )
        result = ttm(sequential, mixed_designs, N_CHIPS, capacity=(0.5, 1.0))
        assert_cells(
            slab(result.total_weeks),
            [
                [
                    sequential.at_capacity(f).total_weeks(design, N_CHIPS)
                    for f in (0.5, 1.0)
                ]
                for design in mixed_designs
            ],
        )

    def test_over_capacity_convenience(self, model, mixed_designs):
        fractions = (0.25, 0.5, 1.0)
        matrix = slab(
            ttm(model, mixed_designs, N_CHIPS, capacity=fractions).total_weeks
        )
        assert matrix.shape == (len(mixed_designs), len(fractions))
        assert_cells(
            matrix,
            [
                [
                    model.at_capacity(f).total_weeks(design, N_CHIPS)
                    for f in fractions
                ]
                for design in mixed_designs
            ],
        )


class TestCASEquivalence:
    def test_matches_scalar_cas(self, model, mixed_designs):
        fractions = (0.3, 0.65, 1.0)
        result = slab(
            cas(model, mixed_designs, N_CHIPS, capacity=fractions).cas
        )
        for i, design in enumerate(mixed_designs):
            oracle = [
                chip_agility_score(model.at_capacity(f), design, N_CHIPS)
                for f in fractions
            ]
            # Central differences amplify round-off, so CAS is pinned
            # relative, as in the batch equivalence suite.
            assert_relative(result[i], [r.cas for r in oracle])

    def test_over_capacity_matches_fig13_oracle(self, model, mixed_designs):
        fractions = (0.4, 0.8)
        matrix = slab(
            cas(model, mixed_designs, N_CHIPS, capacity=fractions).normalized
        )
        assert_relative(
            matrix,
            [
                [
                    chip_agility_score(
                        model.at_capacity(f), design, N_CHIPS
                    ).normalized
                    for f in fractions
                ]
                for design in mixed_designs
            ],
        )


class TestCostEquivalence:
    def test_matches_scalar_cost(self, cost_model, mixed_designs):
        rng = np.random.default_rng(13)
        demand = rng.uniform(1e6, 1e8, 16)
        d0_scale = rng.uniform(0.5, 2.0, 16)
        result = cost(cost_model, mixed_designs, demand, d0_scale=d0_scale)
        models = [
            dataclasses.replace(
                cost_model,
                technology=scaled_technology(cost_model.technology, d),
            )
            for d in d0_scale
        ]
        for i, design in enumerate(mixed_designs):
            oracle = [
                m.chip_creation_cost(design, n)
                for m, n in zip(models, demand)
            ]
            assert result.engineering_usd[i] == pytest.approx(
                oracle[0].engineering_usd, rel=TOLERANCE
            )
            assert result.fixed_usd[i] == oracle[0].fixed_usd
            assert result.mask_usd[i] == oracle[0].mask_usd
            for field in (
                "wafer_usd",
                "testing_usd",
                "packaging_usd",
                "total_usd",
            ):
                assert_relative(
                    slab(getattr(result, field))[i],
                    [getattr(r, field) for r in oracle],
                )

    def test_per_design_demand_matrix(self, cost_model, mixed_designs):
        rng = np.random.default_rng(14)
        demand = rng.uniform(1e6, 1e8, (len(mixed_designs), 8))
        result = cost(cost_model, mixed_designs, demand)
        assert_relative(
            slab(result.total_usd),
            [
                [cost_model.total_usd(design, n) for n in demand[i]]
                for i, design in enumerate(mixed_designs)
            ],
        )

    def test_fig13_variants_cost_panel(self, cost_model):
        variants = fig13_variants()
        quantities = (10e6, 50e6, 100e6)
        result = cost(cost_model, variants, quantities)
        assert_relative(
            slab(result.total_usd),
            [
                [cost_model.total_usd(design, n) for n in quantities]
                for design in variants
            ],
        )


#: Drawn portfolios come from one-node, two-node and monolithic designs,
#: a core-salvage die and a passive interposer on a third node.
ORACLE_POOL = (
    a11("7nm"),
    zen2(),
    zen2_monolithic("7nm"),
    ariane_manycore_salvage("7nm"),
    fig13_variants()[1],  # Zen 2 on a 65 nm interposer
)
ORACLE_NODES = tuple(
    dict.fromkeys(node for design in ORACLE_POOL for node in design.processes)
)
ORACLE_DB = TechnologyDatabase.default()
ORACLE_COST = CostModel(technology=ORACLE_DB)


@st.composite
def drawn_supply(draw):
    """A model, a portfolio, demand and the supply knobs, whole ranges.

    The model has either schedule and market conditions with drawn
    per-node capacity fractions and queue quotes (what ``None`` knobs
    keep). Capacity is None, a global vector or a per-node mapping,
    every fraction in [1e-3, 1.2]; queue quotes 0-30 weeks, D0 scale
    0.5-2 and wafer-rate scale 0.6-1.4 are each absent or drawn per
    sample; demand is 1 to 1e12 chips (drawn per decade), shared or one
    row per design.
    """
    conditions = MarketConditions.nominal()
    for node in draw(st.lists(st.sampled_from(ORACLE_NODES), unique=True)):
        conditions = conditions.with_capacity(
            node, draw(st.floats(MIN_CAPACITY_FRACTION, 1.2))
        )
    for node in draw(st.lists(st.sampled_from(ORACLE_NODES), unique=True)):
        conditions = conditions.with_queue(node, draw(st.floats(0.0, 30.0)))
    model = TTMModel(
        foundry=Foundry(technology=ORACLE_DB, conditions=conditions),
        schedule=draw(st.sampled_from(("pipelined", "sequential"))),
    )
    designs = tuple(draw(st.lists(
        st.sampled_from(ORACLE_POOL), min_size=1, max_size=3, unique_by=id,
    )))
    n = draw(st.integers(1, 3))

    def vector(low, high):
        return np.array(draw(st.lists(
            st.floats(low, high), min_size=n, max_size=n,
        )))

    def optional(low, high):
        return vector(low, high) if draw(st.booleans()) else None

    form = draw(st.sampled_from(("none", "global", "per-node")))
    capacity = None
    if form == "global":
        capacity = vector(MIN_CAPACITY_FRACTION, 1.2)
    elif form == "per-node":
        capacity = {
            node: vector(MIN_CAPACITY_FRACTION, 1.2)
            for node in draw(st.lists(
                st.sampled_from(ORACLE_NODES), min_size=1, unique=True,
            ))
        }
    chips = st.floats(0.0, 12.0).map(lambda exponent: 10.0 ** exponent)
    if draw(st.booleans()):
        demand = np.array([
            [draw(chips) for _ in range(n)] for _ in designs
        ])
    else:
        demand = draw(chips)
    supply = {
        "capacity": capacity,
        "queue_weeks": optional(0.0, 30.0),
        "d0_scale": optional(0.5, 2.0),
        "wafer_rate_scale": optional(0.6, 1.4),
    }
    return model, designs, demand, supply


def scalar_cells(model, designs, demand, supply, n_samples):
    """Per (design, sample): the scalar TTM result, CAS and cost result.

    ``supply`` holds the kernel's inputs: None, a scalar or a per-sample
    vector, and for capacity also a ``{node: fractions}`` mapping.
    """
    demand = np.broadcast_to(demand, (len(designs), n_samples))

    def at(values, j):
        return float(np.broadcast_to(values, (n_samples,))[j])

    cells = [[None] * n_samples for _ in designs]
    for j in range(n_samples):
        sample = {
            key: (
                {node: at(v, j) for node, v in values.items()}
                if isinstance(values, Mapping)
                else None if values is None else at(values, j)
            )
            for key, values in supply.items()
        }
        at_sample = sample_model(model, **sample)
        cost_model = dataclasses.replace(
            ORACLE_COST,
            technology=scaled_technology(ORACLE_DB, sample["d0_scale"]),
        )
        for i, design in enumerate(designs):
            n_chips = float(demand[i, j])
            cells[i][j] = (
                at_sample.time_to_market(design, n_chips),
                chip_agility_score(at_sample, design, n_chips).cas,
                cost_model.chip_creation_cost(design, n_chips),
            )
    return cells


def assert_weeks(matrix, oracle):
    """Every cell within TOLERANCE absolute, or within 8 ulps of the
    scalar value where float64 cannot resolve 1e-9 weeks (past ~8e6
    weeks). The kernel sums wafers per chip before scaling by demand and
    the scalar model scales each die's demand first, so at 1e12 chips
    and 1e-3 capacity the two round 1-4 ulps apart, and a 1.2e7-week
    phase has a spacing of 1.9e-9."""
    got, expected = np.broadcast_arrays(
        np.asarray(matrix, dtype=float), np.asarray(oracle, dtype=float)
    )
    bound = np.maximum(TOLERANCE, 8.0 * np.spacing(np.abs(expected)))
    assert np.all(np.abs(got - expected) <= bound)


def stressed_inputs(scenario, model, nodes, demand, supply):
    """Demand and supply under ``scenario``, restated from the Scenario
    fields rather than read from ``apply_scenario``: each node's
    capacity is its resolved base (the global samples, else its entry in
    a capacity mapping, else the market conditions' fraction) times the
    scenario's multiplier for that node."""
    capacity = supply["capacity"]
    conditions = model.foundry.conditions

    def base(node):
        if isinstance(capacity, Mapping):
            return capacity.get(node, conditions.capacity_for(node))
        if capacity is None:
            return conditions.capacity_for(node)
        return capacity

    def scaled(values, factor):
        return factor * (1.0 if values is None else np.asarray(values))

    queue = supply["queue_weeks"]
    return np.asarray(demand) * scenario.demand_scale, {
        "capacity": {
            node: scaled(base(node), scenario.capacity_multiplier(node))
            for node in nodes
        },
        "queue_weeks": None if queue is None else (
            np.asarray(queue) * scenario.queue_scale
            + scenario.queue_add_weeks
        ),
        "d0_scale": scaled(supply["d0_scale"], scenario.d0_scale),
        "wafer_rate_scale": scaled(
            supply["wafer_rate_scale"], scenario.wafer_rate_scale
        ),
    }


class TestDrawnSupplyOracle:
    """The one kernel against the scalar model over drawn supply knobs."""

    @settings(max_examples=60, deadline=None)
    @given(case=drawn_supply())
    def test_kernels_match_scalar_model(self, case):
        model, designs, demand, supply = case
        evaluation = evaluate(
            model,
            designs,
            demand,
            ("ttm", "cas", "cost"),
            cost_model=ORACLE_COST,
            **supply,
        )
        ttm, cas, cost = evaluation.ttm, evaluation.cas, evaluation.cost
        cells = scalar_cells(
            model, designs, demand, supply, ttm.total_weeks.shape[2]
        )
        for phase in (
            "tapeout_weeks",
            "fabrication_weeks",
            "packaging_weeks",
            "total_weeks",
        ):
            assert_weeks(
                slab(getattr(ttm, phase)),
                [[getattr(c[0], phase) for c in row] for row in cells],
            )
        assert_relative(
            slab(ttm.total_wafers),
            [[c[0].total_wafers for c in row] for row in cells],
        )
        assert_relative(slab(cas.cas), [[c[1] for c in row] for row in cells])
        for part in ("wafer_usd", "testing_usd", "packaging_usd", "total_usd"):
            assert_relative(
                slab(getattr(cost, part)),
                [[getattr(c[2], part) for c in row] for row in cells],
            )

    @settings(max_examples=30, deadline=None)
    @given(
        case=drawn_supply(),
        node=st.sampled_from(ORACLE_NODES),
        node_scale=st.floats(MIN_CAPACITY_FRACTION, 1.2),
        global_scale=st.floats(0.5, 1.2),
        demand_scale=st.floats(1e-3, 1e3),
        queue=st.tuples(st.floats(1.0, 2.5), st.floats(0.0, 8.0)),
        d0_scale=st.floats(0.7, 1.8),
        rate_scale=st.floats(0.6, 1.2),
    )
    def test_scenario_slab_matches_scalar_model(
        self, case, node, node_scale, global_scale, demand_scale, queue,
        d0_scale, rate_scale,
    ):
        # A per-node and a global capacity scenario on top of the drawn
        # base (a global vector, a per-node mapping, or the model's
        # conditions). Demand stays at one chip or more: below that the
        # production term can vanish from TTM, and CAS is unbounded on
        # both sides.
        model, designs, demand, supply = case
        assume(float(np.min(demand)) * demand_scale >= 1.0)
        queue_scale, queue_add = queue
        if supply["queue_weeks"] is None:
            queue_scale, queue_add = 1.0, 0.0
        stress = Scenario(
            name="stress",
            demand_scale=demand_scale,
            capacity_scale={node: node_scale},
            queue_scale=queue_scale,
            queue_add_weeks=queue_add,
            d0_scale=d0_scale,
            wafer_rate_scale=rate_scale,
        )
        outage = Scenario(name="outage", capacity_scale=global_scale)
        scenarios = (Scenario(name="baseline"), stress, outage)
        cube = evaluate(
            model,
            designs,
            demand,
            ("ttm", "cas", "cost"),
            scenarios=scenarios,
            cost_model=ORACLE_COST,
            **supply,
        )
        nodes = tuple(
            dict.fromkeys(p for design in designs for p in design.processes)
        )
        for k in (1, 2):
            n_chips, inputs = stressed_inputs(
                scenarios[k], model, nodes, demand, supply
            )
            cells = scalar_cells(
                model, designs, n_chips, inputs,
                cube.ttm.total_weeks.shape[2],
            )
            assert_weeks(
                cube.ttm.total_weeks[k],
                [[c[0].total_weeks for c in row] for row in cells],
            )
            assert_relative(
                cube.cas.cas[k], [[c[1] for c in row] for row in cells]
            )
            assert_relative(
                cube.cost.total_usd[k],
                [[c[2].total_usd for c in row] for row in cells],
            )

    @pytest.mark.parametrize("demand", [0.0, -5.0, (1e6, 0.0), (1e6, -1.0)])
    def test_nonpositive_demand_raises(self, model, cost_model, demand):
        designs = (a11("7nm"), zen2())
        for kernel in (
            lambda: ttm(model, designs, demand),
            lambda: cas(model, designs, demand),
            lambda: cost(cost_model, designs, demand),
            lambda: evaluate(
                model,
                designs,
                demand,
                ("ttm", "cas", "cost"),
                scenarios=[Scenario(name="base")],
                cost_model=cost_model,
            ),
        ):
            with pytest.raises(InvalidParameterError, match="positive"):
                kernel()


class TestYieldPasses:
    """One Eq. 6 ``profile_yields`` pass per call on a cached table,
    whichever metrics it asks for."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        profile_yields = PortfolioInvariants.profile_yields

        def counted(table, d0_scale):
            calls.append(d0_scale)
            return profile_yields(table, d0_scale)

        monkeypatch.setattr(PortfolioInvariants, "profile_yields", counted)
        return calls

    @pytest.mark.parametrize("sampled", [True, False], ids=["d0", "nominal"])
    def test_passes_per_call(
        self, model, cost_model, mixed_designs, passes, sampled
    ):
        d0_scale = np.linspace(0.5, 2.0, 8) if sampled else None
        kernels = {
            metrics: lambda metrics=metrics: evaluate(
                model,
                mixed_designs,
                N_CHIPS,
                metrics,
                d0_scale=d0_scale,
                cost_model=cost_model,
            )
            for metrics in (
                ("ttm",), ("cas",), ("cost",), ("ttm", "cas", "cost")
            )
        }
        counts = {}
        for name, kernel in kernels.items():
            kernel()  # compiles (and caches) the table
            passes.clear()
            kernel()
            counts[name] = len(passes)
        # Without D0 draws, every call reads the table's nominal columns.
        expected = 1 if sampled else 0
        assert counts == dict.fromkeys(kernels, expected)


class TestValidation:
    def test_empty_portfolio_rejected(self, db):
        with pytest.raises(InvalidParameterError, match="at least one"):
            compile_portfolio((), db)

    def test_two_dimensional_capacity_rejected(self, model, mixed_designs):
        with pytest.raises(
            InvalidParameterError, match="common random numbers"
        ):
            ttm(
                model,
                mixed_designs,
                N_CHIPS,
                capacity=np.full((2, 3), 0.5),
            )

    def test_two_dimensional_queue_rejected(self, model, mixed_designs):
        with pytest.raises(
            InvalidParameterError, match="common random numbers"
        ):
            ttm(
                model,
                mixed_designs,
                N_CHIPS,
                queue_weeks=np.full((2, 3), 1.0),
            )

    def test_wrong_leading_demand_dimension_rejected(
        self, model, mixed_designs
    ):
        with pytest.raises(
            InvalidParameterError, match=r"\(n_designs, n_samples\)"
        ):
            ttm(
                model,
                mixed_designs,
                np.full((len(mixed_designs) + 1, 4), 1e6),
            )

    def test_zero_capacity_names_the_node(self, model, mixed_designs):
        conditions = model.foundry.conditions.with_capacity("7nm", 0.0)
        stalled = model.with_foundry(
            model.foundry.with_conditions(conditions)
        )
        with pytest.raises(
            InvalidParameterError, match="'7nm' has zero effective capacity"
        ):
            ttm(stalled, mixed_designs, N_CHIPS)

    def test_zero_sensitivity_names_the_design(self, model):
        # A tiny volume makes every node slope vanish for that design.
        designs = (a11("7nm"), a11("28nm"))
        with pytest.raises(
            InvalidParameterError, match="zero TTM sensitivity"
        ):
            cas(model, designs, 1e-6)


class TestCompileCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_invariant_cache()
        yield
        clear_invariant_cache()

    def test_shared_entry_across_kernels(self, model, db, mixed_designs):
        compiled = compile_portfolio(mixed_designs, db)
        again = compile_portfolio(mixed_designs, db)
        assert again is compiled
        info = invariant_cache_info()
        # One miss for the compiled table, however many designs it holds.
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_fingerprint_distinguishes_design_order(self, db, mixed_designs):
        forward = portfolio_fingerprint(mixed_designs, db)
        reversed_key = portfolio_fingerprint(mixed_designs[::-1], db)
        assert forward != reversed_key

    def test_fingerprint_includes_model_knobs(self, db, mixed_designs):
        default = portfolio_fingerprint(mixed_designs, db)
        assert default != portfolio_fingerprint(
            mixed_designs, db, engineers=200
        )
        assert default != portfolio_fingerprint(
            mixed_designs, db, edge_corrected=True
        )

    def test_kernels_reuse_one_compiled_portfolio(self, model, mixed_designs):
        ttm(model, mixed_designs, N_CHIPS)
        misses_after_first = invariant_cache_info()["misses"]
        cas(model, mixed_designs, N_CHIPS)
        ttm(model, mixed_designs, N_CHIPS, capacity=0.5)
        assert invariant_cache_info()["misses"] == misses_after_first
