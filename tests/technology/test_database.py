"""Tests for the default technology database and its paper anchors."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost.model import CostModel
from repro.errors import (
    InvalidParameterError,
    NodeUnavailableError,
    UnknownNodeError,
)
from repro.market.foundry import Foundry
from repro.technology.database import (
    ROADMAP,
    TAP_LATENCY_WEEKS,
    TechnologyDatabase,
    WAFER_RATE_KWPM,
    build_default_nodes,
)
from repro.technology.node import ProcessNode
from repro.ttm.model import TTMModel


class TestRoadmapIntegrity:
    def test_twelve_nodes(self, db):
        assert len(db) == 12
        assert db.names == ROADMAP

    def test_indices_are_roadmap_positions(self, db):
        for index, name in enumerate(ROADMAP):
            assert db[name].index == index

    def test_density_monotone_increasing(self, db):
        densities = [node.density_mtr_per_mm2 for node in db.nodes]
        assert densities == sorted(densities)

    def test_tapeout_effort_monotone_increasing(self, db):
        efforts = [node.tapeout_effort for node in db.nodes]
        assert efforts == sorted(efforts)

    def test_testing_effort_decreases_toward_advanced(self, db):
        efforts = [node.testing_effort for node in db.nodes]
        assert efforts == sorted(efforts, reverse=True)

    def test_mask_costs_monotone_increasing(self, db):
        masks = [node.mask_set_cost_usd for node in db.nodes]
        assert masks == sorted(masks)

    def test_wafer_costs_monotone_increasing(self, db):
        costs = [node.wafer_cost_usd for node in db.nodes]
        assert costs == sorted(costs)


class TestPaperAnchors:
    def test_table2_wafer_rates_verbatim(self, db):
        for name, rate in WAFER_RATE_KWPM.items():
            assert db[name].wafer_rate_kwpm == rate

    def test_20nm_and_10nm_out_of_production(self, db):
        assert not db["20nm"].in_production
        assert not db["10nm"].in_production
        assert len(db.production_nodes()) == 10

    def test_latency_schedule(self, db):
        """12 weeks for legacy nodes, rising from 20 nm to 20 weeks @5nm."""
        for name in ("250nm", "180nm", "130nm", "90nm", "65nm", "40nm", "28nm"):
            assert db[name].fab_latency_weeks == 12.0
        assert db["5nm"].fab_latency_weeks == 20.0
        latencies = [node.fab_latency_weeks for node in db.nodes]
        assert latencies == sorted(latencies)

    def test_tap_latency_is_six_weeks(self):
        assert TAP_LATENCY_WEEKS == 6.0

    def test_table4_tapeout_anchor_14nm(self, db):
        """475 M NUT -> 3.6 weeks with 100 engineers at 14 nm."""
        weeks = 475e6 * db["14nm"].tapeout_effort / 100.0
        assert weeks == pytest.approx(3.6, abs=0.05)

    def test_table4_tapeout_anchor_7nm(self, db):
        """475 M NUT -> 10.4 weeks with 100 engineers at 7 nm."""
        weeks = 475e6 * db["7nm"].tapeout_effort / 100.0
        assert weeks == pytest.approx(10.4, abs=0.1)

    def test_a11_die_area_at_10nm(self, db):
        """4.3 B transistors -> ~88 mm^2 at 10 nm (AnandTech, Sec. 6.2)."""
        area = 4.3e9 / db["10nm"].density_transistors_per_mm2
        assert area == pytest.approx(88.0, rel=0.01)

    def test_defect_density_rises_from_20nm(self, db):
        assert db["28nm"].defect_density_per_cm2 == db["250nm"].defect_density_per_cm2
        assert db["20nm"].defect_density_per_cm2 > db["28nm"].defect_density_per_cm2
        assert db["5nm"].defect_density_per_cm2 >= db["7nm"].defect_density_per_cm2


class TestAccessors:
    def test_unknown_node_raises_with_known_list(self, db):
        with pytest.raises(UnknownNodeError) as excinfo:
            db["3nm"]
        assert "3nm" in str(excinfo.value)
        assert "7nm" in str(excinfo.value)

    def test_require_production_rejects_idle_nodes(self, db):
        with pytest.raises(NodeUnavailableError):
            db.require_production("20nm")
        assert db.require_production("7nm").name == "7nm"

    def test_mapping_protocol(self, db):
        assert "7nm" in db
        assert list(db) == list(ROADMAP)
        assert len(list(db.values())) == 12


class TestDerivation:
    def test_override_changes_only_target(self, db):
        derived = db.override({"7nm": {"defect_density_per_cm2": 0.5}})
        assert derived["7nm"].defect_density_per_cm2 == 0.5
        assert db["7nm"].defect_density_per_cm2 != 0.5
        assert derived["5nm"] == db["5nm"]

    def test_override_unknown_node_rejected(self, db):
        with pytest.raises(UnknownNodeError):
            db.override({"3nm": {"defect_density_per_cm2": 0.5}})

    def test_scale_wafer_rates(self, db):
        derived = db.scale_wafer_rates({"7nm": 0.5})
        assert derived["7nm"].wafer_rate_kwpm == pytest.approx(126.0)

    def test_scale_negative_fraction_rejected(self, db):
        with pytest.raises(InvalidParameterError):
            db.scale_wafer_rates({"7nm": -0.1})

    def test_extra_nodes_appended(self, db):
        extra = db["14nm"].with_overrides(name="12nm", nanometers=12.0)
        derived = db.override({}, extra_nodes=[extra])
        assert "12nm" in derived
        assert len(derived) == 13

    def test_duplicate_names_rejected(self, db):
        with pytest.raises(InvalidParameterError):
            TechnologyDatabase(list(db.nodes) + [db["7nm"]])


class TestSharedDefault:
    """One default database per process, so nominal models share tables."""

    def test_default_is_one_object(self):
        assert TechnologyDatabase.default() is TechnologyDatabase.default()

    def test_default_equals_a_fresh_build(self):
        fresh = TechnologyDatabase(build_default_nodes())
        assert fresh is not TechnologyDatabase.default()
        assert dict(fresh) == dict(TechnologyDatabase.default())

    def test_override_returns_a_new_database(self):
        default = TechnologyDatabase.default()
        derived = default.override({})
        assert derived is not default
        assert dict(derived) == dict(default)
        assert TechnologyDatabase.default() is default

    def test_nominal_models_hold_the_default(self):
        default = TechnologyDatabase.default()
        assert TTMModel.nominal().foundry.technology is default
        assert CostModel.nominal().technology is default
        assert Foundry.nominal().technology is default


class TestProcessNodeValidation:
    def _kwargs(self, **overrides):
        base = dict(
            name="test",
            nanometers=10.0,
            index=0,
            density_mtr_per_mm2=50.0,
            defect_density_per_cm2=0.1,
            wafer_rate_kwpm=100.0,
            fab_latency_weeks=12.0,
            tapeout_effort=1e-7,
            testing_effort=1e-17,
            packaging_effort=1e-10,
            wafer_cost_usd=5000.0,
            mask_set_cost_usd=1e6,
            tapeout_fixed_cost_usd=1e5,
        )
        base.update(overrides)
        return base

    def test_valid_node_constructs(self):
        node = ProcessNode(**self._kwargs())
        assert node.in_production
        assert node.density_transistors_per_mm2 == 50e6

    def test_rate_conversion(self):
        node = ProcessNode(**self._kwargs(wafer_rate_kwpm=100.0))
        # 100 kW/month ~= 22,983 wafers/week.
        assert node.max_wafer_rate_per_week == pytest.approx(22983, rel=0.001)

    @pytest.mark.parametrize(
        "field",
        [
            "nanometers",
            "density_mtr_per_mm2",
            "fab_latency_weeks",
            "tapeout_effort",
            "testing_effort",
            "packaging_effort",
            "wafer_cost_usd",
            "mask_set_cost_usd",
        ],
    )
    def test_positive_fields_rejected_at_zero(self, field):
        with pytest.raises(InvalidParameterError):
            ProcessNode(**self._kwargs(**{field: 0.0}))

    def test_negative_defect_density_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProcessNode(**self._kwargs(defect_density_per_cm2=-0.1))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProcessNode(**self._kwargs(name=""))

    def test_with_overrides_is_a_copy(self):
        node = ProcessNode(**self._kwargs())
        derived = node.with_overrides(wafer_rate_kwpm=1.0)
        assert node.wafer_rate_kwpm == 100.0
        assert derived.wafer_rate_kwpm == 1.0


_FIELD_NAMES = [field.name for field in dataclasses.fields(ProcessNode)]


def _outcome(make):
    """What ``make()`` builds, node by node and field by field (``repr``
    is exact for floats, NaN included), or the type of what it raised."""
    try:
        made = make()
    except Exception as error:  # the type is the outcome
        return type(error)
    nodes = made.nodes if isinstance(made, TechnologyDatabase) else (made,)
    return [
        (type(node), [repr(getattr(node, f)) for f in _FIELD_NAMES])
        for node in nodes
    ]


#: Values for any field: zero, negative, non-finite and wrongly typed
#: ones included, so every validation branch (and the type errors the
#: comparisons raise) is drawn.
_VALUES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, -1, -1.0, 1, ""]),
    st.floats(),
    st.integers(min_value=-3, max_value=15),
    st.text(max_size=3),
)


class TestWithOverridesMatchesReplace:
    """``with_overrides`` copies the fields directly; it must equal
    ``dataclasses.replace`` field for field, or raise the same type."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(ROADMAP),
        overrides=st.dictionaries(
            st.sampled_from(_FIELD_NAMES + ["density", "not_a_field"]),
            _VALUES,
            max_size=4,
        ),
    )
    def test_same_node_or_same_error(self, db, name, overrides):
        node = db[name]
        assert _outcome(lambda: node.with_overrides(**overrides)) == _outcome(
            lambda: dataclasses.replace(node, **overrides)
        )
        # TechnologyDatabase.override reaches the node through it.
        assert _outcome(lambda: db.override({name: overrides})) == _outcome(
            lambda: TechnologyDatabase([
                dataclasses.replace(other, **overrides)
                if other is node
                else other
                for other in db.nodes
            ])
        )
        assert db[name] is node

    def test_unknown_field_raises_type_error(self, db):
        with pytest.raises(TypeError):
            db["7nm"].with_overrides(not_a_field=1.0)
        with pytest.raises(TypeError):
            db.override({"7nm": {"not_a_field": 1.0}})

    def test_invalid_value_raises_invalid_parameter(self, db):
        for field, value in (
            ("density_mtr_per_mm2", 0.0),
            ("defect_density_per_cm2", -0.1),
            ("name", ""),
        ):
            with pytest.raises(InvalidParameterError):
                db["7nm"].with_overrides(**{field: value})
