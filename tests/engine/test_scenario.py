"""Composition laws of the one evaluation call: K scenarios == K x one,
and any metric subset == the same field of an all-metrics call.

``evaluate`` runs the engine's one TTM and CAS kernel, the scenario
cube, so comparing a K-scenario call with a loop of one-scenario calls
compares the kernel with itself. What the comparison pins (DESIGN.md
S23) is that evaluating K scenarios in one pass changes no bit: slab
``k`` of every tensor equals the identity-scenario call over
``apply_scenario``-transformed base draws, bit for bit, so the
K-scenario pass's D0-group sharing, (demand, D0) cache, sparse node
plans and per-node capacity mappings are exact. These tests pin that
law over the stress library and hand-built scenarios (per-node capacity
mappings, on a global or a per-node capacity base, additive queue
delays, demand/D0 rescales), scenario-permutation equivariance, the
cost deduplication, the metric-subset law, one cube pass per call, and
the validation errors. Whether the kernel is *right* is the scalar
model's call, in ``test_portfolio.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.library.a11 import a11
from repro.design.library.ariane import ariane_manycore
from repro.design.library.zen2 import zen2, zen2_monolithic
from repro.cost.model import CostModel
from repro.engine import scenario as scenario_module
from repro.engine.scenario import (
    POINT_METRICS,
    Scenario,
    apply_scenario,
    compile_scenarios,
    evaluate,
    scenario_evaluate,
)
from repro.errors import InvalidParameterError
from repro.montecarlo.disruption import MIN_CAPACITY_FRACTION
from repro.montecarlo.stress import (
    STRESS_LIBRARY,
    graded_stress_scenarios,
    stress_scenarios,
)
from repro.technology.database import (
    TechnologyDatabase,
    build_default_nodes,
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
    cube = evaluate(
        model, designs, draws["n_chips"],
        POINT_METRICS if with_cost else ("ttm", "cas"),
        scenarios=scenario_set, cost_model=cost_model,
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
        ttm = evaluate(model, designs, kw["n_chips"], ("ttm",),
                       d0_scale=kw["d0_scale"], **supply).ttm
        cas = evaluate(model, designs, kw["n_chips"], ("cas",),
                       d0_scale=kw["d0_scale"], **supply).cas
        slabs = [
            (cube.ttm.total_weeks[k], ttm.total_weeks[0]),
            (cube.ttm.fabrication_weeks[k], ttm.fabrication_weeks[0]),
            (cube.ttm.packaging_weeks[k], ttm.packaging_weeks[0]),
            (cube.ttm.total_wafers[k], ttm.total_wafers[0]),
            (cube.cas.cas[k], cas.cas[0]),
        ]
        if with_cost:
            cost = evaluate(model, designs, kw["n_chips"], ("cost",),
                            d0_scale=kw["d0_scale"],
                            cost_model=CostModel.nominal()).cost
            for field in ("total_usd", "wafer_usd", "testing_usd",
                          "packaging_usd", "usd_per_chip"):
                slabs.append((getattr(cube.cost, field)[k],
                              getattr(cost, field)[0]))
        for fused, oracle in slabs:
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
        cube = evaluate(
            model, designs, base_draws["n_chips"], ("ttm", "cas"),
            scenarios=[Scenario(name="baseline")],
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
        knobs = dict(
            capacity=base_draws["capacity"],
            queue_weeks=base_draws["queue_weeks"],
            wafer_rate_scale=base_draws["wafer_rate_scale"],
        )
        ttm = evaluate(
            model, designs, base_draws["n_chips"], ("ttm",),
            scenarios=[Scenario(name="baseline")], **knobs,
        ).ttm
        raw = evaluate(
            model, designs, base_draws["n_chips"], ("ttm",), **knobs
        ).ttm
        assert np.array_equal(ttm.total_weeks, raw.total_weeks)

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
        cube = evaluate(model, designs, base_draws["n_chips"],
                        POINT_METRICS, scenarios=scenario_set,
                        cost_model=cost_model, **kwargs)
        shuffled = evaluate(model, designs, base_draws["n_chips"],
                            POINT_METRICS, scenarios=permuted,
                            cost_model=cost_model, **kwargs)
        for k, original in enumerate(permutation):
            assert shuffled.scenarios[k] == scenario_set.names[original]
            assert np.array_equal(shuffled.ttm.total_weeks[k],
                                  cube.ttm.total_weeks[original])
            assert np.array_equal(shuffled.cas.cas[k],
                                  cube.cas.cas[original])
            assert np.array_equal(shuffled.cost.total_usd[k],
                                  cube.cost.total_usd[original])

    def test_cost_dedup_shares_tensors(self, model, designs, base_draws):
        # Same (demand, D0) pair -> one evaluation, the same bits.
        result = evaluate(
            model, designs, base_draws["n_chips"], ("cost",),
            scenarios=[Scenario(name="a", capacity_scale=0.5),
                       Scenario(name="b", queue_add_weeks=4.0)],
            d0_scale=base_draws["d0_scale"],
            cost_model=CostModel.nominal(),
        ).cost
        assert np.array_equal(result.total_usd[0], result.total_usd[1])
        assert len(result._terms) == 1

    def test_per_node_capacity_only_hits_named_nodes(self, model,
                                                     base_draws):
        designs = (a11("7nm"), ariane_manycore("28nm", cores=8))
        scenario_set = compile_scenarios([
            Scenario(name="baseline"),
            Scenario(name="outage-28nm", capacity_scale={"28nm": 0.4}),
        ])
        ttm = evaluate(
            model, designs, N_CHIPS, ("ttm",), scenarios=scenario_set,
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
        cas = evaluate(
            model, designs, base_draws["n_chips"], ("cas",),
            scenarios=scenario_set,
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
            oracle = evaluate(
                model, designs, kw["n_chips"], ("cas",),
                capacity=kw["capacity"], queue_weeks=kw["queue_weeks"],
                wafer_rate_scale=kw["wafer_rate_scale"],
            ).cas
            assert np.array_equal(cas.cas[k], oracle.cas[0])


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
            evaluate(
                model, designs, N_CHIPS, ("cas",),
                scenarios=[Scenario(name="baseline")],
                relative_step=1.5,
            )

    @pytest.mark.parametrize(
        "metrics", [(), ("ttm", "speed"), ("agility",)]
    )
    def test_unknown_or_no_metrics(self, model, designs, metrics):
        with pytest.raises(InvalidParameterError, match="metrics"):
            evaluate(model, designs, N_CHIPS, metrics)

    def test_cost_needs_a_cost_model(self, model, designs):
        with pytest.raises(InvalidParameterError, match="cost model"):
            evaluate(model, designs, N_CHIPS, ("ttm", "cost"))


#: Per metric, the result fields the subset law compares.
FIELDS = {
    "ttm": ("design_weeks", "tapeout_weeks", "fabrication_weeks",
            "packaging_weeks", "total_weeks", "total_wafers"),
    "cas": ("cas", "normalized"),
    "cost": ("engineering_usd", "fixed_usd", "mask_usd", "nre_usd",
             "wafer_usd", "testing_usd", "packaging_usd", "n_chips",
             "manufacturing_usd", "total_usd", "usd_per_chip"),
}

#: Every non-empty subset of the metric vocabulary.
SUBSETS = [
    tuple(m for i, m in enumerate(POINT_METRICS) if mask >> i & 1)
    for mask in range(1, 2 ** len(POINT_METRICS))
]

#: A set whose scenarios split into several (demand, D0) groups.
GROUPED = [
    Scenario(name="baseline"),
    Scenario(name="excursion", d0_scale=1.5),
    Scenario(name="whiplash", demand_scale=1.4, queue_scale=1.2),
    Scenario(name="combined", demand_scale=0.7, d0_scale=1.2,
             capacity_scale={"28nm": 0.5}),
    Scenario(name="squeeze", capacity_scale=0.6),
]


class TestMetricSubsets:
    """Asking for fewer metrics changes no bit of the ones asked for."""

    @pytest.mark.parametrize("scenarios", [None, GROUPED],
                             ids=["identity", "grouped"])
    @pytest.mark.parametrize("d0", [False, True], ids=["nominal", "d0"])
    def test_each_subset_equals_the_full_call(
        self, model, cost_model, designs, base_draws, scenarios, d0
    ):
        knobs = dict(
            scenarios=scenarios,
            capacity=base_draws["capacity"],
            queue_weeks=base_draws["queue_weeks"],
            d0_scale=base_draws["d0_scale"] if d0 else None,
            wafer_rate_scale=base_draws["wafer_rate_scale"],
            cost_model=cost_model,
        )
        full = evaluate(model, designs, base_draws["n_chips"],
                        POINT_METRICS, **knobs)
        for metrics in SUBSETS:
            part = evaluate(model, designs, base_draws["n_chips"],
                            metrics, **knobs)
            assert part.scenarios == full.scenarios
            for metric in POINT_METRICS:
                if metric not in metrics:
                    assert getattr(part, metric) is None
                    continue
                for field in FIELDS[metric]:
                    got = getattr(getattr(part, metric), field)
                    want = getattr(getattr(full, metric), field)
                    assert got.shape == want.shape, (metrics, field)
                    assert np.array_equal(got, want), (metrics, field)


class TestOneCubePass:
    @pytest.mark.parametrize("metrics", SUBSETS, ids="+".join)
    def test_at_most_one_cube_per_call(
        self, model, cost_model, designs, base_draws, metrics, monkeypatch
    ):
        calls = []
        cube = scenario_module._evaluate_cube

        def counted(*args, **kwargs):
            calls.append(kwargs["with_cas"])
            return cube(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "_evaluate_cube", counted)
        evaluate(model, designs, base_draws["n_chips"], metrics,
                 scenarios=GROUPED, queue_weeks=base_draws["queue_weeks"],
                 d0_scale=base_draws["d0_scale"], cost_model=cost_model)
        timed = "ttm" in metrics or "cas" in metrics
        assert calls == ([("cas" in metrics)] if timed else [])


class TestCostModelMatch:
    """Cost priced beside TTM reads the TTM model's table, so a cost
    model that would compile another table is refused."""

    def doubled_wafer_cost(self, db):
        node = db["7nm"]
        return CostModel(technology=db.override(
            {"7nm": {"wafer_cost_usd": 2.0 * node.wafer_cost_usd}}
        ))

    def test_other_database_raises(self, model):
        doubled = self.doubled_wafer_cost(model.foundry.technology)
        with pytest.raises(InvalidParameterError,
                           match="technology database"):
            scenario_evaluate(model, doubled, (a11("7nm"),), 1e7,
                              [Scenario(name="baseline")])

    @pytest.mark.parametrize("field, value",
                             [("alpha", 2.5), ("edge_corrected", True)])
    def test_other_yield_knobs_raise(self, model, cost_model, field, value):
        other = dataclasses.replace(cost_model, **{field: value})
        with pytest.raises(InvalidParameterError, match=field):
            evaluate(model, (a11("7nm"),), 1e7, ("cas", "cost"),
                     cost_model=other)

    def test_cost_alone_prices_its_own_database(self, model):
        doubled = self.doubled_wafer_cost(model.foundry.technology)
        design = a11("7nm")
        total = evaluate(model, (design,), 1e7, ("cost",),
                         cost_model=doubled).cost.total_usd
        assert total[0, 0, 0] == pytest.approx(
            doubled.total_usd(design, 1e7), rel=1e-9
        )

    def test_equal_database_is_accepted(self, model):
        twin = CostModel(technology=TechnologyDatabase(build_default_nodes()))
        design = a11("7nm")
        evaluation = evaluate(model, (design,), 1e7, ("ttm", "cost"),
                              cost_model=twin)
        assert evaluation.cost.total_usd[0, 0, 0] == pytest.approx(
            twin.total_usd(design, 1e7), rel=1e-9
        )
