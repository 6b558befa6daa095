"""Tests for design serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.design.block import Block, ip_block
from repro.design.chip import ChipDesign
from repro.design.die import Die
from repro.design.serialize import (
    design_from_dict,
    design_to_dict,
    die_from_dict,
    die_to_dict,
)
from repro.errors import InvalidDesignError
from repro.technology.salvage import SalvageSpec


def _full_design():
    compute = Die(
        name="compute",
        process="7nm",
        blocks=(
            Block(name="core", transistors=4e8, instances=8),
            ip_block("sram", 1e9),
        ),
        count=2,
        top_level_transistors=3e7,
        salvage=SalvageSpec(
            n_units=8, required_units=6, unit_area_fraction=0.7
        ),
    )
    interposer = Die(
        name="interposer",
        process="65nm",
        area_mm2=400.0,
        yield_override=0.9999,
    )
    return ChipDesign(
        name="full", dies=(compute, interposer), design_weeks=12.0
    )


class TestRoundTrip:
    def test_full_design_round_trips(self):
        design = _full_design()
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt == design

    def test_survives_json(self):
        design = _full_design()
        rebuilt = design_from_dict(
            json.loads(json.dumps(design_to_dict(design)))
        )
        assert rebuilt == design

    def test_library_designs_round_trip(self):
        from repro.design.library import a11, raven_multicore, zen2

        for design in (a11("28nm"), zen2(interposer=True), raven_multicore()):
            assert design_from_dict(design_to_dict(design)) == design

    @settings(max_examples=30, deadline=None)
    @given(
        ntt=st.floats(min_value=1e3, max_value=1e10),
        nut_fraction=st.floats(min_value=0.0, max_value=1.0),
        instances=st.integers(1, 64),
        count=st.integers(1, 4),
    )
    def test_arbitrary_designs_round_trip(
        self, ntt, nut_fraction, instances, count
    ):
        design = ChipDesign(
            name="hypo",
            dies=(
                Die(
                    name="die",
                    process="14nm",
                    blocks=(
                        Block(
                            name="b",
                            transistors=ntt,
                            instances=instances,
                            unique_transistors=ntt * nut_fraction,
                        ),
                    ),
                    count=count,
                ),
            ),
        )
        assert design_from_dict(design_to_dict(design)) == design


class TestFormat:
    def test_defaults_omitted(self):
        design = ChipDesign(
            name="plain",
            dies=(
                Die(
                    name="d",
                    process="7nm",
                    blocks=(Block(name="b", transistors=1e6),),
                ),
            ),
        )
        data = design_to_dict(design)
        die_data = data["dies"][0]
        assert "count" not in die_data
        assert "salvage" not in die_data
        assert "design_weeks" not in data

    def test_version_written(self):
        assert design_to_dict(_full_design())["version"] == 1

    def test_unknown_version_rejected(self):
        data = design_to_dict(_full_design())
        data["version"] = 99
        with pytest.raises(InvalidDesignError, match="version"):
            design_from_dict(data)

    def test_unknown_keys_rejected(self):
        data = design_to_dict(_full_design())
        data["dies"][0]["transisters"] = 5  # the classic typo
        with pytest.raises(InvalidDesignError, match="transisters"):
            design_from_dict(data)

    def test_unknown_block_keys_rejected(self):
        data = design_to_dict(_full_design())
        data["dies"][0]["blocks"][0]["color"] = "blue"
        with pytest.raises(InvalidDesignError, match="color"):
            design_from_dict(data)

    def test_missing_dies_rejected(self):
        with pytest.raises(InvalidDesignError, match="dies"):
            design_from_dict({"version": 1, "name": "x"})

    @pytest.mark.parametrize(
        "where, key",
        [
            ("design", "name"),
            ("die", "name"),
            ("die", "process"),
            ("block", "name"),
            ("block", "transistors"),
            ("salvage", "n_units"),
            ("salvage", "required_units"),
            ("salvage", "unit_area_fraction"),
        ],
    )
    def test_missing_required_key_rejected(self, where, key):
        # A missing key is an InvalidDesignError naming it, never a
        # KeyError out of the loader.
        data = design_to_dict(_full_design())
        die = data["dies"][0]
        entry = {
            "design": data,
            "die": die,
            "block": die["blocks"][0],
            "salvage": die["salvage"],
        }[where]
        del entry[key]
        with pytest.raises(InvalidDesignError, match=key):
            design_from_dict(data)

    def test_non_mapping_entry_rejected(self):
        with pytest.raises(InvalidDesignError, match="die must be a mapping"):
            design_from_dict({"name": "x", "dies": [1]})

    def test_structural_validation_still_applies(self):
        """Loading re-runs the dataclass invariants."""
        data = design_to_dict(_full_design())
        data["dies"][0]["blocks"][0]["unique_transistors"] = 1e30
        with pytest.raises(InvalidDesignError):
            design_from_dict(data)

    def test_die_round_trip_standalone(self):
        die = _full_design().dies[0]
        assert die_from_dict(die_to_dict(die)) == die
