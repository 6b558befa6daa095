"""The compiled design table against the scalar Eq. 1-8 model.

``compile_portfolio`` derives every per-(design, node) and per-die
column with NumPy over all rows at once; the scalar model functions are
the oracle each column is checked against, at 1e-12 relative, on drawn
portfolios: 1-4 dies over 1-3 production nodes (several dies per node),
counts 1-4, explicit and minimum areas, passive interposers (fixed
yield) and core-salvage dies, with block-parallel tapeout and the
edge-corrected gross-die estimator switched on and off. The D0-scaled
terms are checked against the same functions on a database whose
defect densities are scaled through ``TechnologyDatabase.override``.

The D0-dependent terms (and the cost kernel's testing and packaging
terms) accumulate per-die contributions with an in-order scatter that
must equal ``np.add.at`` bit for bit; the fused cube and its looped
oracle both call it, so only a direct comparison can pin it.

A table compiled with one technology database per row (an ensemble of
calibration worlds) must equal, row for row and bit for bit, each row's
design compiled alone under its own database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.nre import ENGINEER_WEEK_COST_USD, design_nre
from repro.design.block import Block
from repro.design.chip import ChipDesign
from repro.design.die import Die
from repro.design.library.a11 import a11
from repro.design.library.zen2 import zen2
from repro.engine.portfolio import (
    _scatter_in_order,
    _scatter_ranks,
    compile_portfolio,
)
from repro.errors import (
    InvalidParameterError,
    NodeUnavailableError,
    UnknownNodeError,
)
from repro.experiments.robustness import _perturbed_database
from repro.market.foundry import Foundry
from repro.technology.database import TechnologyDatabase
from repro.technology.salvage import SalvageSpec
from repro.ttm.fabrication import wafer_demand_by_node
from repro.ttm.packaging import packaging_breakdown
from repro.ttm.tapeout import (
    node_tapeout_calendar_weeks,
    sequential_tapeout_calendar_weeks,
)

RTOL = 1e-12
ALPHA = 3.0

DB = TechnologyDatabase.default()
PRODUCTION_NODES = tuple(node.name for node in DB.production_nodes())


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)


@st.composite
def blocks(draw, name):
    transistors = draw(st.floats(1e6, 1e9))
    unique = draw(
        st.none()
        | st.just(0.0)
        | st.floats(0.0, 1.0).map(lambda f: f * transistors)
    )
    return Block(
        name=name,
        transistors=transistors,
        instances=draw(st.integers(1, 4)),
        unique_transistors=unique,
    )


@st.composite
def dies(draw, name, processes):
    die_blocks = tuple(
        draw(blocks(f"{name}-b{j}")) for j in range(draw(st.integers(0, 3)))
    )
    area = draw(st.none() | st.floats(1.0, 600.0))
    min_area = draw(st.just(0.0) | st.floats(0.5, 50.0))
    if not die_blocks and area is None:
        area = draw(st.floats(50.0, 900.0))  # a passive interposer
    kind = draw(st.sampled_from(("eq6", "fixed", "salvage")))
    salvage = None
    if kind == "salvage":
        units = draw(st.integers(1, 16))
        salvage = SalvageSpec(
            n_units=units,
            required_units=draw(st.integers(1, units)),
            unit_area_fraction=draw(st.floats(0.05, 1.0)),
        )
    return Die(
        name=name,
        process=draw(st.sampled_from(processes)),
        blocks=die_blocks,
        count=draw(st.integers(1, 4)),
        top_level_transistors=draw(st.just(0.0) | st.floats(0.0, 1e8)),
        area_mm2=area,
        min_area_mm2=min_area,
        yield_override=(
            draw(st.floats(0.5, 1.0)) if kind == "fixed" else None
        ),
        salvage=salvage,
    )


@st.composite
def designs(draw, name):
    processes = draw(
        st.lists(
            st.sampled_from(PRODUCTION_NODES),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return ChipDesign(
        name=name,
        dies=tuple(
            draw(dies(f"{name}-d{i}", processes))
            for i in range(draw(st.integers(1, 4)))
        ),
        design_weeks=draw(st.just(0.0) | st.floats(0.0, 50.0)),
    )


portfolios = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(designs(f"design-{i}") for i in range(n)))
)
knobs = st.fixed_dictionaries({
    "engineers": st.sampled_from((50, 100, 250)),
    "edge_corrected": st.booleans(),
    "block_parallel": st.booleans(),
})


def scaled(scale):
    return DB.override({
        name: {"defect_density_per_cm2": DB[name].defect_density_per_cm2 * scale}
        for name in PRODUCTION_NODES
    })


def check_yield_terms(table, row, slots, design, technology, knobs, scale):
    """Wafers per chip (Eq. 5) and testing (Eq. 7) at one D0 scale."""
    wafers = table.wafers_per_chip_at(scale)[row, :, 0]
    demand = wafer_demand_by_node(
        design,
        Foundry.nominal(technology),
        n_chips=1,
        alpha=ALPHA,
        edge_corrected=knobs["edge_corrected"],
    )
    for process, slot in slots.items():
        close(wafers[slot], demand[process])
    packaging = packaging_breakdown(design, technology, n_chips=1, alpha=ALPHA)
    close(
        table.testing_weeks_per_chip_at(scale)[row, 0],
        packaging.testing_weeks,
    )
    return packaging


class TestColumnsMatchTheScalarModel:
    @settings(max_examples=60, deadline=None)
    @given(
        portfolio=portfolios,
        knobs=knobs,
        d0_scale=st.floats(0.25, 4.0),
    )
    def test_every_column(self, portfolio, knobs, d0_scale):
        table = compile_portfolio(portfolio, DB, alpha=ALPHA, **knobs)
        engineers = knobs["engineers"]
        for row, design in enumerate(portfolio):
            assert table.processes[row] == design.processes
            slots = {p: s for s, p in enumerate(design.processes)}
            assert table.node_mask[row].sum() == len(slots)

            tapeout = node_tapeout_calendar_weeks(
                design, DB, engineers, block_parallel=knobs["block_parallel"]
            )
            for process, slot in slots.items():
                close(table.tapeout_weeks[row, slot], tapeout[process])
                node = DB[process]
                assert table.max_rate[row, slot] == node.max_wafer_rate_per_week
                assert table.fab_latency_weeks[row, slot] == (
                    node.fab_latency_weeks
                )
                assert table.wafer_cost_usd[row, slot] == node.wafer_cost_usd
            close(table.max_tapeout_weeks[row], max(tapeout.values()))
            close(
                table.sequential_tapeout_weeks[row],
                sequential_tapeout_calendar_weeks(design, DB, engineers),
            )
            assert table.design_weeks[row] == design.design_weeks

            packaging = check_yield_terms(
                table, row, slots, design, DB, knobs, 1.0
            )
            close(table.assembly_weeks_per_chip[row], packaging.assembly_weeks)
            check_yield_terms(
                table, row, slots, design, scaled(d0_scale), knobs, d0_scale
            )

            nre = design_nre(design, DB, ENGINEER_WEEK_COST_USD)
            close(
                np.sum(table.tapeout_effort_weeks[row] * ENGINEER_WEEK_COST_USD),
                nre.engineering_usd,
            )
            close(np.sum(table.tapeout_fixed_usd[row]), nre.fixed_usd)
            close(np.sum(table.mask_set_usd[row]), nre.mask_usd)

    @settings(max_examples=30, deadline=None)
    @given(portfolio=portfolios, knobs=knobs)
    def test_nominal_columns_are_the_unit_scale_terms(self, portfolio, knobs):
        table = compile_portfolio(portfolio, DB, alpha=ALPHA, **knobs)
        assert np.array_equal(
            table.wafers_per_chip, table.wafers_per_chip_at(1.0)[:, :, 0]
        )
        assert np.array_equal(
            table.testing_weeks_per_chip,
            table.testing_weeks_per_chip_at(1.0)[:, 0],
        )


@st.composite
def scatter_layouts(draw):
    """Profiles over (design, node) cells, 1-3 die types per used cell,
    in drawn order: ``(profile_design, profile_node, table shape, used
    cells, used designs)``."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cells = [(d, n) for d in range(shape[0]) for n in range(shape[1])]
    used = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    profiles = [
        cell for cell in used for _ in range(draw(st.integers(1, 3)))
    ]
    profiles = draw(st.permutations(profiles))
    design, node = (np.array(axis, dtype=np.intp) for axis in zip(*profiles))
    return design, node, shape, len(used), len({d for d, _ in used})


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestInOrderScatter:
    @settings(max_examples=80, deadline=None)
    @given(
        layout=scatter_layouts(),
        n_samples=st.sampled_from((1, 4096)),
        broadcast=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_np_add_at_bit_for_bit(
        self, layout, n_samples, broadcast, seed
    ):
        design, node, shape, n_slots, n_designs = layout
        rng = np.random.default_rng(seed)
        # A (profiles, 1) contribution broadcasts over the sample axis,
        # as the cost kernel's packaging term does.
        width = 1 if broadcast else n_samples
        contribution = 10.0 ** rng.uniform(-5.0, 5.0, (design.size, width))
        for target, cells, n_cells in (
            ((design, node), shape, n_slots),
            ((design,), shape[:1], n_designs),
        ):
            expected = np.zeros(cells + (n_samples,))
            np.add.at(expected, target, contribution)
            actual = _scatter_in_order(
                np.zeros(cells + (n_samples,)),
                _scatter_ranks(target, cells, n_cells),
                contribution,
            )
            assert_same_bits(actual, expected)

    def test_table_terms_equal_np_add_at(self):
        # Zen 2 on one node puts three die types in one (design, node)
        # cell; the other designs keep one die type per cell.
        table = compile_portfolio(
            (
                a11("7nm"),
                zen2("7nm", "7nm", interposer=True, interposer_process="7nm"),
                zen2(),
            ),
            DB,
        )
        scale = np.random.default_rng(3).uniform(0.25, 4.0, 4096)
        yields = table.profile_yields(scale)
        wafers = np.zeros((table.n_designs, table.max_nodes, scale.size))
        np.add.at(
            wafers,
            (table.profile_design, table.profile_node),
            table.profile_count[:, None]
            / (table.profile_gross[:, None] * yields),
        )
        assert_same_bits(table.wafers_per_chip_at(scale, yields), wafers)
        testing = np.zeros((table.n_designs, scale.size))
        np.add.at(
            testing,
            table.profile_design,
            table.profile_count[:, None]
            / yields
            * table.profile_ntt[:, None]
            * table.profile_testing_effort[:, None],
        )
        assert_same_bits(
            table.testing_weeks_per_chip_at(scale, yields), testing
        )


#: Per-slot, per-design and per-die columns of the compiled table.
SLOT_COLUMNS = (
    "tapeout_weeks",
    "max_rate",
    "fab_latency_weeks",
    "wafer_cost_usd",
    "tapeout_effort_weeks",
    "tapeout_fixed_usd",
    "mask_set_usd",
    "wafers_per_chip",
)
DESIGN_COLUMNS = (
    "sequential_tapeout_weeks",
    "max_tapeout_weeks",
    "assembly_weeks_per_chip",
    "design_weeks",
    "testing_weeks_per_chip",
)
PROFILE_COLUMNS = (
    "profile_node",
    "profile_count",
    "profile_ntt",
    "profile_area_mm2",
    "profile_gross",
    "profile_testing_effort",
    "profile_mean_defects",
    "profile_fixed_yield",
    "profile_salvage_units",
    "profile_salvage_required",
    "profile_uncore_defects",
    "profile_unit_defects",
)

#: Calibration worlds: every node's parameters under +-30 % noise.
WORLDS = tuple(
    _perturbed_database(DB, np.random.default_rng(seed), 0.3)
    for seed in range(3)
)


def same_bits(actual, expected):
    """Equal shapes and bits (NaN included)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.dtype.kind == "f":
        actual, expected = actual.view(np.int64), expected.view(np.int64)
    return actual.shape == expected.shape and np.array_equal(actual, expected)


def assert_row_is_the_solo_compile(table, row, solo, d0_scale):
    """Row ``row`` of ``table`` against a 1-design table, bit for bit."""
    slots = len(solo.processes[0])
    assert table.processes[row] == solo.processes[0]
    assert table.node_mask[row].sum() == slots
    for name in SLOT_COLUMNS:
        column = getattr(table, name)[row, :slots]
        assert same_bits(column, getattr(solo, name)[0, :slots]), name
    for name in DESIGN_COLUMNS:
        assert same_bits(
            getattr(table, name)[row], getattr(solo, name)[0]
        ), name
    mine = table.profile_design == row
    for name in PROFILE_COLUMNS:
        assert same_bits(getattr(table, name)[mine], getattr(solo, name)), name
    assert same_bits(
        table.wafers_per_chip_at(d0_scale)[row, :slots],
        solo.wafers_per_chip_at(d0_scale)[0, :slots],
    )
    assert same_bits(
        table.testing_weeks_per_chip_at(d0_scale)[row],
        solo.testing_weeks_per_chip_at(d0_scale)[0],
    )


class TestOneDatabasePerRow:
    @settings(max_examples=40, deadline=None)
    @given(
        portfolio=portfolios,
        knobs=knobs,
        data=st.data(),
        d0_scale=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    )
    def test_each_row_equals_its_world_alone(
        self, portfolio, knobs, data, d0_scale
    ):
        # Rows repeat design objects and worlds in drawn order, so the
        # gather-once path for repeated designs is exercised too.
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(portfolio) - 1),
                    st.integers(0, len(WORLDS) - 1),
                ),
                min_size=1,
                max_size=6,
            )
        )
        table = compile_portfolio(
            [portfolio[d] for d, _ in rows],
            [WORLDS[w] for _, w in rows],
            alpha=ALPHA,
            **knobs,
        )
        assert table.n_designs == len(rows)
        for row, (d, w) in enumerate(rows):
            solo = compile_portfolio(
                (portfolio[d],), WORLDS[w], alpha=ALPHA, **knobs
            )
            assert_row_is_the_solo_compile(table, row, solo, d0_scale)

    def test_robustness_shaped_table(self):
        designs = (
            a11("180nm"), a11("7nm"), zen2(), zen2("7nm", "7nm"),
        )
        table = compile_portfolio(
            designs * len(WORLDS),
            [world for world in WORLDS for _ in designs],
        )
        for row in range(table.n_designs):
            world, design = divmod(row, len(designs))
            solo = compile_portfolio((designs[design],), WORLDS[world])
            assert_row_is_the_solo_compile(table, row, solo, [0.5, 2.0])

    def test_one_database_is_the_one_entry_case(self):
        designs = (a11("7nm"), zen2(), a11("7nm"))
        single = compile_portfolio(designs, DB)
        per_row = compile_portfolio(designs, [DB] * len(designs))
        for name in SLOT_COLUMNS + DESIGN_COLUMNS + PROFILE_COLUMNS:
            assert same_bits(getattr(per_row, name), getattr(single, name))

    def test_needs_one_database_per_design(self):
        with pytest.raises(InvalidParameterError):
            compile_portfolio((a11("7nm"), a11("5nm")), [DB])

    def test_checks_each_world_for_production(self):
        retired = DB.override({"7nm": {"wafer_rate_kwpm": 0.0}})
        with pytest.raises(NodeUnavailableError):
            compile_portfolio((a11("5nm"), a11("7nm")), [DB, retired])
        # A world that retires a node no row of it uses compiles.
        table = compile_portfolio((a11("7nm"), a11("5nm")), [DB, retired])
        assert table.n_designs == 2


class TestErrors:
    @pytest.mark.parametrize("node", ["3nm", "2nm"])
    def test_unknown_node(self, node):
        with pytest.raises(UnknownNodeError):
            compile_portfolio((a11("7nm"), a11(node)), DB)

    @pytest.mark.parametrize("node", ["20nm", "10nm"])
    def test_node_out_of_production(self, node):
        with pytest.raises(NodeUnavailableError):
            compile_portfolio((a11("7nm"), a11(node)), DB)

    def test_die_larger_than_the_wafer(self):
        # The edge-corrected estimator gives such a die zero gross dies;
        # the scalar Eq. 5 refuses it the same way.
        design = ChipDesign(
            name="wafer-scale",
            dies=(Die(name="slab", process="7nm", area_mm2=8e4),),
        )
        with pytest.raises(InvalidParameterError):
            wafer_demand_by_node(
                design, Foundry.nominal(DB), n_chips=1, edge_corrected=True
            )
        with pytest.raises(InvalidParameterError):
            compile_portfolio((design,), DB, edge_corrected=True)
