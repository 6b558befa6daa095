"""Fig. 6 reproduction checks (optimal cache matrix)."""

import pytest

from repro.experiments import fig06_cache_matrix

PROCESSES = ("250nm", "65nm", "28nm", "7nm")
QUANTITIES = (1e4, 1e6, 1e8)
SIZES = (1, 4, 16, 64, 256, 1024)


@pytest.fixture(scope="module")
def result(model):
    return fig06_cache_matrix.run(
        model, processes=PROCESSES, quantities=QUANTITIES, sizes_kb=SIZES
    )


class TestFig06:
    def test_matrix_complete(self, result):
        assert len(result.cells) == len(PROCESSES) * len(QUANTITIES)

    def test_mass_production_shrinks_caches(self, result):
        """More chips -> wafer throughput binds -> smaller optimum."""
        for process in PROCESSES:
            small_run = result.cell(process, 1e4)
            mass_run = result.cell(process, 1e8)
            assert (
                mass_run.icache_kb + mass_run.dcache_kb
                <= small_run.icache_kb + small_run.dcache_kb
            )

    def test_advanced_nodes_afford_bigger_caches_at_volume(self, result):
        """Denser nodes make cache area cheap (Fig. 6's column trend)."""
        legacy = result.cell("250nm", 1e8)
        advanced = result.cell("7nm", 1e8)
        assert (
            advanced.icache_kb + advanced.dcache_kb
            >= legacy.icache_kb + legacy.dcache_kb
        )

    def test_optimum_beats_the_corners(self, result, model):
        """Each cell's pick must dominate extreme configurations."""
        from repro.design.library.ariane import ariane_manycore
        from repro.perf.ipc import IPCModel

        perf = IPCModel()
        study_model = model.at_capacity(0.05)  # the experiment's default
        cell = result.cell("28nm", 1e6)
        best_metric = cell.ipc / cell.ttm_weeks
        for icache, dcache in ((1, 1), (1024, 1024)):
            design = ariane_manycore(
                "28nm", cores=16, icache_kb=icache, dcache_kb=dcache
            )
            metric = perf.ipc(icache, dcache) / study_model.total_weeks(
                design, 1e6
            )
            assert best_metric >= metric - 1e-12

    def test_matches_the_scalar_search(self, result, model):
        """Every cell is the scalar model's first strict max of ipc/ttm."""
        from repro.design.library.ariane import ariane_manycore
        from repro.perf.ipc import IPCModel

        perf = IPCModel()
        study_model = model.at_capacity(fig06_cache_matrix.DEFAULT_CAPACITY_SHARE)
        for process in PROCESSES:
            for n_chips in QUANTITIES:
                best = None
                for icache in SIZES:
                    for dcache in SIZES:
                        design = ariane_manycore(
                            process,
                            cores=fig06_cache_matrix.DEFAULT_CORES,
                            icache_kb=icache,
                            dcache_kb=dcache,
                        )
                        ipc = perf.ipc(icache, dcache)
                        ttm = study_model.total_weeks(design, n_chips)
                        if best is None or ipc / ttm > best[2] / best[3]:
                            best = (icache, dcache, ipc, ttm)
                cell = result.cell(process, n_chips)
                assert (cell.icache_kb, cell.dcache_kb) == best[:2]
                assert cell.ipc == best[2]
                assert cell.ttm_weeks == pytest.approx(best[3], rel=1e-12)

    def test_one_table_equals_per_node_calls(self, result, model):
        """Every node is a block of one table's rows; each block equals
        that node's own kernel call bit for bit."""
        from repro.design.library.ariane import ariane_manycore
        from repro.engine.portfolio import portfolio_ttm

        study_model = model.at_capacity(fig06_cache_matrix.DEFAULT_CAPACITY_SHARE)
        pairs = [(i, d) for i in SIZES for d in SIZES]
        for process in PROCESSES:
            designs = [
                ariane_manycore(
                    process,
                    cores=fig06_cache_matrix.DEFAULT_CORES,
                    icache_kb=i,
                    dcache_kb=d,
                )
                for i, d in pairs
            ]
            ttm = portfolio_ttm(study_model, designs, QUANTITIES).total_weeks
            for column, n_chips in enumerate(QUANTITIES):
                cell = result.cell(process, n_chips)
                row = pairs.index((cell.icache_kb, cell.dcache_kb))
                assert cell.ttm_weeks == ttm[row, column]

    def test_cache_area_fraction_in_unit_interval(self, result):
        for cell in result.cells.values():
            assert 0.0 < cell.cache_area_fraction < 1.0

    def test_table_renders(self, result):
        text = result.table()
        assert "250nm" in text and "/" in text
