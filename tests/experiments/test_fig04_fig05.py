"""Figs. 4 and 5 reproduction checks (cache design space)."""

import pytest

from repro.experiments import fig04_cache_scatter, fig05_ipc_tradeoffs

SIZES = (1, 4, 16, 32, 64, 128, 512, 1024)


@pytest.fixture(scope="module")
def fig4(model):
    return fig04_cache_scatter.run(model, sizes_kb=SIZES)


@pytest.fixture(scope="module")
def fig5(model, cost_model):
    return fig05_ipc_tradeoffs.run(model, cost_model, sizes_kb=SIZES)


class TestFig04:
    def test_full_grid(self, fig4):
        assert len(fig4.points) == len(SIZES) ** 2

    def test_ipc_range_matches_paper(self, fig4):
        ipcs = [p.ipc for p in fig4.points]
        assert 0.08 < min(ipcs) < 0.13
        assert 0.22 < max(ipcs) < 0.30

    def test_bigger_caches_higher_ipc(self, fig4):
        assert fig4.point(64, 64).ipc > fig4.point(1, 1).ipc

    def test_bigger_caches_longer_ttm(self, fig4):
        """Growing die area pushes TTM up (the scatter's x-y tension)."""
        assert fig4.point(1024, 1024).ttm_weeks > fig4.point(1, 1).ttm_weeks

    def test_max_ipc_config_is_not_the_fastest(self, fig4):
        """The scatter's tension: the best-IPC point is not min-TTM."""
        best_ipc = max(fig4.points, key=lambda p: p.ipc)
        fastest = min(fig4.points, key=lambda p: p.ttm_weeks)
        assert best_ipc.ttm_weeks > fastest.ttm_weeks

    def test_doubling_small_caches_near_free(self, fig4):
        """1->2x at the small end costs little TTM but buys real IPC."""
        small = fig4.point(1, 1)
        doubled = fig4.point(4, 4)
        assert doubled.ipc > small.ipc * 1.2
        assert doubled.ttm_weeks < small.ttm_weeks * 1.02

    def test_point_lookup_error(self, fig4):
        with pytest.raises(KeyError):
            fig4.point(3, 3)

    def test_table_renders(self, fig4):
        assert "IPC/TTM" in fig4.table()


class TestFig05:
    def test_optima_differ(self, fig5):
        """The paper's core point: IPC/TTM and IPC/cost peak at
        different cache configurations."""
        ttm_opt = fig5.best_ipc_per_ttm
        cost_opt = fig5.best_ipc_per_cost
        assert (ttm_opt.icache_kb, ttm_opt.dcache_kb) != (
            cost_opt.icache_kb,
            cost_opt.dcache_kb,
        )

    def test_cost_optimum_prefers_bigger_caches(self, fig5):
        """IPC/cost tolerates more area than IPC/TTM (64/128 vs 32/32
        in the paper)."""
        ttm_opt = fig5.best_ipc_per_ttm
        cost_opt = fig5.best_ipc_per_cost
        assert (
            cost_opt.icache_kb + cost_opt.dcache_kb
            > ttm_opt.icache_kb + ttm_opt.dcache_kb
        )

    def test_cross_penalty_asymmetry(self, fig5):
        """Paper: TTM-optimum loses ~4% IPC/cost; cost-optimum loses
        ~18% IPC/TTM — optimizing for TTM is the safer pick."""
        cost_loss_at_ttm_opt, ttm_loss_at_cost_opt = fig5.cross_penalties()
        assert ttm_loss_at_cost_opt > cost_loss_at_ttm_opt
        assert cost_loss_at_ttm_opt < 0.15
        assert 0.002 < ttm_loss_at_cost_opt < 0.40

    def test_normalization(self, fig5):
        assert max(p.ipc_per_ttm_norm for p in fig5.points) == pytest.approx(1.0)
        assert max(p.ipc_per_cost_norm for p in fig5.points) == pytest.approx(1.0)

    def test_table_renders(self, fig5):
        text = fig5.table()
        assert "max IPC/TTM" in text
        assert "max IPC/cost" in text
