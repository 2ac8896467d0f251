from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdscan.errors import DataError
from herdscan.ingest import AlignedPanel
from herdscan.returns import CsadSeries, ReturnPanel, csad, log_returns, up_down_masks

from generators import csad_series, intraday_grid, panel_from_returns, stock_meta


def price_panel(prices):
    prices = np.asarray(prices, dtype=float)
    n_assets, n_bars = prices.shape
    metas = [stock_meta(f"S{i}") for i in range(n_assets)]
    return AlignedPanel(assets=tuple(metas), grid=intraday_grid(n_bars),
                        prices=prices)


class TestLogReturns:
    def test_constant_price_gives_zero_returns(self):
        panel = price_panel([[100.0] * 5, [42.0] * 5])
        rp = log_returns(panel)
        assert rp.returns.shape == (2, 4)
        assert np.array_equal(rp.returns, np.zeros((2, 4)))

    def test_doubling_gives_ln2(self):
        panel = price_panel([[100.0, 200.0, 200.0], [1.0, 1.0, 1.0]])
        rp = log_returns(panel)
        assert rp.returns[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_direct_evaluation(self):
        panel = price_panel([[100.0, 110.0, 99.0], [1.0, 1.0, 1.0]])
        rp = log_returns(panel)
        assert rp.returns[0].tolist() == pytest.approx(
            [0.095310, -0.105361], abs=1e-6)

    def test_grid_drops_first_timestamp(self):
        panel = price_panel([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        rp = log_returns(panel)
        assert rp.grid.tolist() == panel.grid[1:].tolist()

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        prices = np.exp(rng.normal(0, 0.01, (3, 50)).cumsum(axis=1)) * 100
        base = log_returns(price_panel(prices)).returns
        scaled = log_returns(price_panel(prices * 7.3)).returns
        np.testing.assert_allclose(scaled, base, atol=1e-14)


class TestCsad:
    def test_identical_assets_zero_dispersion(self):
        rng = np.random.default_rng(1)
        row = np.exp(rng.normal(0, 0.01, 30).cumsum()) * 100
        panel = price_panel(np.vstack([row, row, row]))
        series = csad(log_returns(panel))
        assert np.allclose(series.csad, 0.0, atol=1e-15)

    def test_symmetric_two_asset_case(self):
        # returns (+0.01, -0.01): market 0, csad 0.01
        returns3 = np.array([[0.01, 0.0], [-0.01, 0.0]])
        panel = panel_from_returns(returns3, [stock_meta("A"), stock_meta("B")])
        series = csad(log_returns(panel))
        assert series.market_return[0] == pytest.approx(0.0, abs=1e-15)
        assert series.csad[0] == pytest.approx(0.01, abs=1e-12)

    def test_three_asset_hand_computation(self):
        # returns (0.02, 0.00, -0.01): market 0.003333, csad 0.011111
        returns = np.array([[0.02, 0.0], [0.0, 0.0], [-0.01, 0.0]])
        metas = [stock_meta(t) for t in ("A", "B", "C")]
        series = csad(log_returns(panel_from_returns(returns, metas)))
        assert series.market_return[0] == pytest.approx(0.0033333333, abs=1e-9)
        assert series.csad[0] == pytest.approx(0.0111111111, abs=1e-9)

    def test_needs_two_assets(self):
        grid = intraday_grid(4)
        rp = ReturnPanel(assets=(stock_meta("A"),), grid=grid,
                         returns=np.zeros((1, 4)))
        with pytest.raises(DataError):
            csad(rp)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_returns_left_unchanged(self, order):
        # csad takes the absolute deviation in place, in its own temporary
        rng = np.random.default_rng(21)
        returns = np.array(rng.normal(0, 0.02, (9, 50)), order=order)
        rp = ReturnPanel(assets=tuple(stock_meta(f"S{i}") for i in range(9)),
                         grid=intraday_grid(50), returns=returns)
        before = rp.returns.copy(order="K")
        series = csad(rp)
        assert rp.returns is returns
        np.testing.assert_array_equal(rp.returns, before)
        expected = np.abs(before - before.mean(axis=0)).mean(axis=0)
        np.testing.assert_array_equal(series.csad, expected)

    def test_triangle_bound(self):
        rng = np.random.default_rng(9)
        returns = rng.normal(0, 0.02, (6, 200))
        metas = [stock_meta(f"S{i}") for i in range(6)]
        series = csad(log_returns(panel_from_returns(returns, metas)))
        rp = log_returns(panel_from_returns(returns, metas))
        bound = np.abs(rp.returns).max(axis=0) + np.abs(series.market_return)
        assert (series.csad <= bound + 1e-12).all()

    @given(st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=25, deadline=None)
    def test_price_scale_invariance_of_series(self, scale):
        rng = np.random.default_rng(13)
        prices = np.exp(rng.normal(0, 0.01, (4, 40)).cumsum(axis=1)) * 100
        base = csad(log_returns(price_panel(prices)))
        scaled = csad(log_returns(price_panel(prices * scale)))
        np.testing.assert_allclose(scaled.market_return, base.market_return,
                                   atol=1e-13)
        np.testing.assert_allclose(scaled.csad, base.csad, atol=1e-13)


class TestUpDownMasks:
    def test_sign_split(self):
        series = csad_series(np.array([0.01, -0.02, 0.0]),
                             np.array([0.1, 0.1, 0.1]))
        up, down = up_down_masks(series)
        assert up.tolist() == [True, False, False]
        assert down.tolist() == [False, True, False]

    def test_all_positive_market(self):
        series = csad_series(np.array([0.01, 0.02, 0.005]),
                             np.array([0.1, 0.1, 0.1]))
        up, down = up_down_masks(series)
        assert up.all() and not down.any()

    def test_alternating_signs_complementary(self):
        rm = np.array([0.01, -0.01] * 10)
        series = csad_series(rm, np.full(20, 0.1))
        up, down = up_down_masks(series)
        assert not (up & down).any()
        assert (up | down).all()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1, max_value=1),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_never_both(self, values):
        rm = np.array(values)
        series = csad_series(rm, np.zeros(rm.size))
        up, down = up_down_masks(series)
        assert not (up & down).any()
        assert not up[rm == 0].any() and not down[rm == 0].any()


class TestCsadSeriesValidation:
    def test_negative_csad_rejected(self):
        with pytest.raises(DataError):
            CsadSeries(grid=intraday_grid(2),
                       market_return=np.array([0.0, 0.0]),
                       csad=np.array([0.1, -0.1]))
