"""A composition law of the one TTM and CAS kernel: K scenarios == K x one.

``portfolio_ttm`` / ``portfolio_cas`` are the scenario cube's kernel on
one identity scenario, so comparing the cube with a loop of them
compares the kernel with itself. What the comparison pins (DESIGN.md
S23) is that evaluating K scenarios in one pass changes no bit: slab
``k`` of every ``scenario_evaluate`` tensor equals the ``portfolio_*``
call over ``apply_scenario``-transformed base draws, bit for bit, so
the K-scenario pass's D0-group sharing, (demand, D0) cache, sparse
node plans and per-node capacity mappings are exact. These tests pin
that law over the stress library and hand-built scenarios (per-node
capacity mappings, on a global or a per-node capacity base, additive
queue delays, demand/D0 rescales), scenario-permutation equivariance,
the cost-tensor deduplication, and the validation errors. Whether the
kernel is *right* is the scalar model's call, in ``test_portfolio.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.library.a11 import a11
from repro.design.library.ariane import ariane_manycore
from repro.design.library.zen2 import zen2, zen2_monolithic
from repro.cost.model import CostModel
from repro.engine.portfolio import (
    portfolio_cas,
    portfolio_cost,
    portfolio_ttm,
)
from repro.engine.scenario import (
    Scenario,
    apply_scenario,
    compile_scenarios,
    scenario_cost,
    scenario_evaluate,
)
from repro.errors import InvalidParameterError
from repro.montecarlo.disruption import MIN_CAPACITY_FRACTION
from repro.montecarlo.stress import (
    STRESS_LIBRARY,
    graded_stress_scenarios,
    stress_scenarios,
)

N_CHIPS = 2.5e7


@pytest.fixture
def designs():
    """Single- and multi-node designs so padded node slots are live."""
    return (
        a11("7nm"),
        zen2(),  # 7 nm compute + 12 nm I/O chiplets
        zen2_monolithic("7nm"),
        ariane_manycore("28nm", cores=8),
    )


@pytest.fixture
def base_draws():
    rng = np.random.default_rng(20230915)
    n = 64
    return {
        "n_chips": N_CHIPS * (0.6 + 0.8 * rng.random(n)),
        "capacity": 0.55 + 0.4 * rng.random(n),
        "queue_weeks": 4.0 * rng.random(n),
        "d0_scale": 0.8 + 0.4 * rng.random(n),
        "wafer_rate_scale": 0.85 + 0.3 * rng.random(n),
    }


SCENARIOS = [
    Scenario(name="baseline"),
    Scenario(name="fab-outage", capacity_scale={"7nm": 0.4, "12nm": 0.7}),
    Scenario(name="squeeze", capacity_scale=0.6, queue_scale=1.5),
    Scenario(name="logistics", queue_add_weeks=6.0, wafer_rate_scale=0.9),
    Scenario(name="whiplash", demand_scale=1.4, queue_scale=1.2),
    Scenario(name="excursion", d0_scale=1.5),
    Scenario(name="combined", demand_scale=0.7, d0_scale=1.2,
             capacity_scale={"28nm": 0.5}, queue_add_weeks=2.0),
]


def oracle_nodes(cube_or_set):
    """The node-name union the oracle needs for per-node mappings."""
    names = getattr(cube_or_set, "processes", None)
    if names is None:
        return ()
    out = ()
    for processes in names:
        for name in processes:
            if name not in out:
                out = out + (name,)
    return out


def assert_cube_matches_loop(model, designs, scenario_set, draws,
                             with_cost=True):
    cost_model = CostModel.nominal() if with_cost else None
    cube = scenario_evaluate(
        model, cost_model, designs, draws["n_chips"], scenario_set,
        capacity=draws["capacity"], queue_weeks=draws["queue_weeks"],
        d0_scale=draws["d0_scale"],
        wafer_rate_scale=draws["wafer_rate_scale"],
    )
    nodes = oracle_nodes(cube.cas)
    for k in range(scenario_set.n_scenarios):
        kw = apply_scenario(
            scenario_set, k, nodes=nodes,
            conditions=model.foundry.conditions, n_chips=draws["n_chips"],
            capacity=draws["capacity"], queue_weeks=draws["queue_weeks"],
            d0_scale=draws["d0_scale"],
            wafer_rate_scale=draws["wafer_rate_scale"],
        )
        supply = {key: kw[key] for key in
                  ("capacity", "queue_weeks", "wafer_rate_scale")}
        ttm = portfolio_ttm(model, designs, kw["n_chips"],
                            d0_scale=kw["d0_scale"], **supply)
        cas = portfolio_cas(model, designs, kw["n_chips"],
                            d0_scale=kw["d0_scale"], **supply)
        slabs = [
            (cube.ttm.total_weeks[k], ttm.total_weeks),
            (cube.ttm.fabrication_weeks[k], ttm.fabrication_weeks),
            (cube.ttm.tapeout_weeks[k], ttm.tapeout_weeks),
            (cube.cas.cas[k], cas.cas),
        ]
        if with_cost:
            cost = portfolio_cost(CostModel.nominal(), designs,
                                  kw["n_chips"], d0_scale=kw["d0_scale"],
                                  engineers=model.engineers)
            slabs.append((cube.cost.total_usd[k], cost.total_usd))
        for fused, oracle in slabs:
            fused = np.asarray(fused)
            oracle = np.asarray(oracle)
            # Sample-independent slabs (tapeout) drop the trailing
            # sample axis in the cube; restore it for the comparison.
            while fused.ndim < oracle.ndim:
                fused = fused[..., None]
            fused, oracle = np.broadcast_arrays(fused, oracle)
            assert np.array_equal(fused, oracle), scenario_set.names[k]


class TestCubeEquivalence:
    def test_hand_built_scenarios(self, model, designs, base_draws):
        assert_cube_matches_loop(
            model, designs, compile_scenarios(SCENARIOS), base_draws
        )

    def test_stress_library(self, model, designs, base_draws):
        assert_cube_matches_loop(
            model, designs, stress_scenarios("all"), base_draws
        )

    def test_graded_grid(self, model, designs, base_draws):
        scenario_set = graded_stress_scenarios(
            (0.25, 0.75), demand_intensities=(0.5,)
        )
        assert_cube_matches_loop(model, designs, scenario_set, base_draws)

    def test_per_node_capacity_base(self, model, designs, base_draws):
        # A {node: fractions} base; the per-node and global capacity
        # scenarios scale each node's resolved base (its entry, or the
        # model's conditions for 28 nm, which the mapping leaves out).
        rng = np.random.default_rng(31)
        draws = {
            **base_draws,
            "capacity": {
                "7nm": 0.3 + 0.6 * rng.random(64),
                "12nm": 0.5 + 0.5 * rng.random(64),
            },
        }
        scenario_set = compile_scenarios([
            Scenario(name="baseline"),
            Scenario(name="fab-outage",
                     capacity_scale={"7nm": 0.4, "28nm": 0.7}),
            Scenario(name="squeeze", capacity_scale=0.6, queue_scale=1.5),
            Scenario(name="combined", demand_scale=1.3, d0_scale=1.2,
                     capacity_scale={"12nm": 0.5}, queue_add_weeks=2.0),
        ])
        assert_cube_matches_loop(model, designs, scenario_set, draws)

    def test_nominal_defect_density(self, model, designs, base_draws):
        # No D0 draws: the identity D0 group is the table's nominal
        # columns, which the cost oracle re-derives at scale 1.
        assert_cube_matches_loop(
            model,
            designs,
            compile_scenarios(SCENARIOS),
            {**base_draws, "d0_scale": None},
        )

    def test_without_cost_model(self, model, designs, base_draws):
        cube = scenario_evaluate(
            model, None, designs, base_draws["n_chips"],
            [Scenario(name="baseline")],
            capacity=base_draws["capacity"],
        )
        assert cube.cost is None

    @settings(max_examples=20, deadline=None)
    @given(
        # Demand and capacity reach the extremes: capacity down to the
        # disruption model's 1e-3 floor, demand over six decades on a
        # base of up to 1e12 chips.
        chips=st.floats(1.0, 1e12),
        demand=st.floats(1e-3, 1e3),
        cap=st.floats(MIN_CAPACITY_FRACTION, 1.2),
        queue=st.floats(1.0, 2.5),
        add=st.floats(0.0, 8.0),
        d0=st.floats(0.7, 1.8),
        rate=st.floats(0.6, 1.2),
    )
    def test_property_fused_equals_loop(
        self, model, chips, demand, cap, queue, add, d0, rate
    ):
        designs = (a11("7nm"), zen2())
        rng = np.random.default_rng(7)
        draws = {
            "n_chips": chips * (0.8 + 0.4 * rng.random(8)),
            "capacity": 0.6 + 0.3 * rng.random(8),
            "queue_weeks": 3.0 * rng.random(8),
            "d0_scale": 0.9 + 0.2 * rng.random(8),
            "wafer_rate_scale": 0.9 + 0.2 * rng.random(8),
        }
        scenario_set = compile_scenarios([
            Scenario(name="baseline"),
            Scenario(name="drawn", demand_scale=demand,
                     capacity_scale=cap, queue_scale=queue,
                     queue_add_weeks=add, d0_scale=d0,
                     wafer_rate_scale=rate),
        ])
        assert_cube_matches_loop(model, designs, scenario_set, draws)


class TestScenarioSemantics:
    def test_identity_scenario_is_raw_portfolio(self, model, designs,
                                                base_draws):
        ttm = scenario_evaluate(
            model, None, designs, base_draws["n_chips"],
            [Scenario(name="baseline")],
            capacity=base_draws["capacity"],
            queue_weeks=base_draws["queue_weeks"],
            wafer_rate_scale=base_draws["wafer_rate_scale"],
        ).ttm
        raw = portfolio_ttm(
            model, designs, base_draws["n_chips"],
            capacity=base_draws["capacity"],
            queue_weeks=base_draws["queue_weeks"],
            wafer_rate_scale=base_draws["wafer_rate_scale"],
        )
        assert np.array_equal(
            np.asarray(ttm.total_weeks[0]), np.asarray(raw.total_weeks)
        )

    def test_permutation_equivariance(self, model, designs, base_draws):
        scenario_set = compile_scenarios(SCENARIOS)
        permutation = [3, 0, 6, 2, 5, 1, 4]
        permuted = scenario_set.subset(permutation)
        kwargs = dict(
            capacity=base_draws["capacity"],
            queue_weeks=base_draws["queue_weeks"],
            d0_scale=base_draws["d0_scale"],
            wafer_rate_scale=base_draws["wafer_rate_scale"],
        )
        cost_model = CostModel.nominal()
        cube = scenario_evaluate(model, cost_model, designs,
                                 base_draws["n_chips"], scenario_set,
                                 **kwargs)
        shuffled = scenario_evaluate(model, cost_model, designs,
                                     base_draws["n_chips"], permuted,
                                     **kwargs)
        for k, original in enumerate(permutation):
            assert shuffled.ttm.scenarios[k] == scenario_set.names[original]
            assert np.array_equal(shuffled.ttm.total_weeks[k],
                                  cube.ttm.total_weeks[original])
            assert np.array_equal(shuffled.cas.cas[k],
                                  cube.cas.cas[original])
            assert np.array_equal(shuffled.cost.total_usd[k],
                                  cube.cost.total_usd[original])

    def test_cost_dedup_shares_tensors(self, model, designs, base_draws):
        # Same (demand, D0) pair -> literally the same backing rows.
        result = scenario_cost(
            CostModel.nominal(), designs, base_draws["n_chips"],
            [Scenario(name="a", capacity_scale=0.5),
             Scenario(name="b", queue_add_weeks=4.0)],
            d0_scale=base_draws["d0_scale"],
            engineers=model.engineers,
        )
        assert np.array_equal(result.total_usd[0], result.total_usd[1])

    def test_per_node_capacity_only_hits_named_nodes(self, model,
                                                     base_draws):
        designs = (a11("7nm"), ariane_manycore("28nm", cores=8))
        scenario_set = compile_scenarios([
            Scenario(name="baseline"),
            Scenario(name="outage-28nm", capacity_scale={"28nm": 0.4}),
        ])
        ttm = scenario_evaluate(
            model, None, designs, N_CHIPS, scenario_set,
            capacity=base_draws["capacity"],
        ).ttm
        total = np.asarray(ttm.total_weeks)
        # The 28 nm design slows down; the 7 nm-only design is untouched.
        assert np.array_equal(total[1, 0], total[0, 0])
        assert np.all(total[1, 1] >= total[0, 1])
        assert np.any(total[1, 1] > total[0, 1])


class TestScenarioCAS:
    def test_cas_matches_oracle_per_scenario(self, model, designs,
                                             base_draws):
        scenario_set = stress_scenarios(["fab-outage", "logistics"])
        cas = scenario_evaluate(
            model, None, designs, base_draws["n_chips"], scenario_set,
            capacity=base_draws["capacity"],
            queue_weeks=base_draws["queue_weeks"],
            wafer_rate_scale=base_draws["wafer_rate_scale"],
        ).cas
        nodes = oracle_nodes(cas)
        for k in range(scenario_set.n_scenarios):
            kw = apply_scenario(
                scenario_set, k, nodes=nodes,
                conditions=model.foundry.conditions,
                n_chips=base_draws["n_chips"],
                capacity=base_draws["capacity"],
                queue_weeks=base_draws["queue_weeks"],
                wafer_rate_scale=base_draws["wafer_rate_scale"],
            )
            oracle = portfolio_cas(
                model, designs, kw["n_chips"], capacity=kw["capacity"],
                queue_weeks=kw["queue_weeks"],
                wafer_rate_scale=kw["wafer_rate_scale"],
            )
            assert np.array_equal(np.asarray(cas.cas[k]),
                                  np.asarray(oracle.cas))


class TestValidation:
    def test_empty_scenario_set(self):
        with pytest.raises(InvalidParameterError):
            compile_scenarios([])

    def test_duplicate_names(self):
        with pytest.raises(InvalidParameterError):
            compile_scenarios(
                [Scenario(name="x"), Scenario(name="x")]
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"demand_scale": 0.0},
            {"demand_scale": -1.0},
            {"queue_scale": 0.0},
            {"queue_add_weeks": -0.5},
            {"d0_scale": 0.0},
            {"wafer_rate_scale": -0.2},
            {"capacity_scale": 0.0},
            {"capacity_scale": {"7nm": -0.5}},
        ],
    )
    def test_invalid_scenario_fields(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Scenario(name="bad", **kwargs)

    def test_empty_name(self):
        with pytest.raises(InvalidParameterError):
            Scenario(name="")

    def test_bad_relative_step(self, model, designs):
        with pytest.raises(InvalidParameterError):
            scenario_evaluate(
                model, None, designs, N_CHIPS,
                [Scenario(name="baseline")],
                relative_step=1.5,
            )
