"""Tables 3 and 4 reproduction checks."""

import pytest

from repro.experiments import table3_accelerators, table4_zen2_dies


@pytest.fixture(scope="module")
def table3():
    return table3_accelerators.run()


@pytest.fixture(scope="module")
def table4():
    return table4_zen2_dies.run()


class TestTable3:
    PAPER = {
        # key: (speedup, T_tapeout weeks, C_tapeout $M)
        "sorting-stream": (16.71, 3.5, 6.8),
        "sorting-iterative": (3.07, 1.6, 4.6),
        "dft-stream": (56.36, 2.9, 6.1),
        "dft-iterative": (20.81, 1.5, 4.6),
    }

    def test_four_rows(self, table3):
        assert len(table3.rows) == 4

    @pytest.mark.parametrize("key", list(PAPER))
    def test_speedups_near_paper(self, table3, key):
        expected = self.PAPER[key][0]
        assert table3.row(key).speedup == pytest.approx(expected, rel=0.15)

    @pytest.mark.parametrize("key", list(PAPER))
    def test_tapeout_weeks_near_paper(self, table3, key):
        expected = self.PAPER[key][1]
        assert table3.row(key).tapeout_weeks == pytest.approx(expected, rel=0.10)

    @pytest.mark.parametrize("key", list(PAPER))
    def test_tapeout_costs_near_paper(self, table3, key):
        expected = self.PAPER[key][2] * 1e6
        assert table3.row(key).tapeout_cost_usd == pytest.approx(
            expected, rel=0.05
        )

    def test_area_ratios_match_paper(self, table3):
        """18.18x / 7.53x / 14.87x / 7.24x relative to Ariane."""
        expected = {
            "sorting-stream": 18.18,
            "sorting-iterative": 7.53,
            "dft-stream": 14.87,
            "dft-iterative": 7.24,
        }
        for key, ratio in expected.items():
            assert table3.row(key).area_relative_to_ariane == pytest.approx(
                ratio, rel=0.01
            )

    def test_streaming_costs_more_than_iterative(self, table3):
        """Streaming variants out-run their iterative siblings and cost
        more tapeout money and time."""
        for kind in ("sorting", "dft"):
            stream = table3.row(f"{kind}-stream")
            iterative = table3.row(f"{kind}-iterative")
            assert stream.speedup > iterative.speedup
            assert stream.tapeout_cost_usd > iterative.tapeout_cost_usd
            assert stream.tapeout_weeks > iterative.tapeout_weeks

    def test_unknown_row(self, table3):
        with pytest.raises(KeyError):
            table3.row("npu")

    def test_table_renders(self, table3):
        assert "Sorting Stream" in table3.table()


class TestTable4:
    PAPER = {
        # (die, node): (NTT, NUT, area mm^2, tapeout weeks)
        ("compute", "14nm"): (3.8e9, 4.75e8, 206.0, 3.6),
        ("compute", "7nm"): (3.8e9, 4.75e8, 74.0, 10.4),
        ("io", "14nm"): (2.1e9, 5.23e8, 125.0, 4.0),
        ("io", "7nm"): (2.1e9, 5.23e8, 38.0, 11.5),
    }

    @pytest.mark.parametrize("die,process", list(PAPER))
    def test_counts_exact(self, table4, die, process):
        ntt, nut, _, _ = self.PAPER[(die, process)]
        row = table4.row(die, process)
        assert row.ntt == pytest.approx(ntt)
        assert row.nut == pytest.approx(nut)

    @pytest.mark.parametrize("die,process", list(PAPER))
    def test_areas_exact(self, table4, die, process):
        area = self.PAPER[(die, process)][2]
        assert table4.row(die, process).area_mm2 == area

    @pytest.mark.parametrize("die,process", list(PAPER))
    def test_tapeout_weeks_near_paper(self, table4, die, process):
        weeks = self.PAPER[(die, process)][3]
        assert table4.row(die, process).tapeout_weeks == pytest.approx(
            weeks, abs=0.1
        )

    def test_unknown_row(self, table4):
        with pytest.raises(KeyError):
            table4.row("gpu", "7nm")

    def test_table_renders(self, table4):
        assert "compute" in table4.table()
