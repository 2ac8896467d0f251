from __future__ import annotations

import codecs
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdscan.data import sector_map_path, subperiods_path
from herdscan.errors import (
    ConfigError,
    DataError,
    DuplicateTimestamp,
    EmptySlice,
    MalformedRow,
    NonPositivePrice,
    UnfillableAsset,
)
from herdscan.ingest import (
    TRADING_END_MINUTE,
    TRADING_START_MINUTE,
    AlignedPanel,
    AssetMeta,
    RawSeries,
    Sector,
    SubPeriod,
    Vehicle,
    _parse_rows,
    _window_mask,
    _zone,
    align,
    filter_by_missing,
    load_bars,
    read_sector_map,
    read_subperiods,
    slice_panel,
)

import oracles
from generators import intraday_grid, stock_meta


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def rows_only(path, ticker):
    """The row parser alone on a bar file, in the default zone."""
    return _parse_rows(path.read_bytes(), _zone(None))


def series(ticker, stamps, closes):
    return RawSeries(ticker=ticker, timestamps=np.asarray(stamps),
                     closes=np.asarray(closes, dtype=float))


class TestLoadBars:
    def test_two_column_parse(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01 09:30,100.0\n2019-04-01 10:00,101.0\n")
        s = load_bars(path, "X")
        assert len(s) == 2
        assert s.closes.tolist() == [100.0, 101.0]

    def test_rows_out_of_order_are_sorted(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01 10:00,101.0\n2019-04-01 09:30,100.0\n")
        s = load_bars(path, "X")
        assert s.closes.tolist() == [100.0, 101.0]
        assert str(s.timestamps[0]) == "2019-04-01T09:30:00"

    def test_zero_close_rejected(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01 09:30,100.0\n2019-04-01 10:00,0.0\n")
        with pytest.raises(NonPositivePrice):
            load_bars(path, "X")

    def test_ohlcv_uses_close_column(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "timestamp,open,high,low,close,volume\n"
                         "2019-04-01 09:30,1,2,0.5,100.0,999\n"
                         "2019-04-01 10:00,1,2,0.5,101.5,999\n")
        s = load_bars(path, "X")
        assert s.closes.tolist() == [100.0, 101.5]

    def test_duplicate_timestamp(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01 09:30,100.0\n2019-04-01 09:30,101.0\n")
        with pytest.raises(DuplicateTimestamp):
            load_bars(path, "X")

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01 09:30,100.0\nnot-a-time,101.0\n")
        with pytest.raises(MalformedRow) as err:
            load_bars(path, "X")
        assert err.value.line_no == 2

    def test_inconsistent_column_count(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01 09:30,100.0\n2019-04-01 10:00,101.0,5\n")
        with pytest.raises(MalformedRow):
            load_bars(path, "X")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "x.csv", "\n")
        with pytest.raises(MalformedRow):
            load_bars(path, "X")

    def test_only_first_line_may_be_a_header(self, tmp_path):
        path = write_csv(tmp_path, "x.csv",
                         "timestamp,close\n"
                         "bad-row,1.0\n"
                         "2019-13-45 09:30,2.0\n"
                         "2019-04-01 09:30,100.0\n"
                         "2019-04-01 10:00,101.0\n")
        for parse in (load_bars, rows_only):
            with pytest.raises(MalformedRow) as err:
                parse(path, "X")
            assert err.value.line_no == 2

    @pytest.mark.parametrize("first", [
        "2019-13-45 09:30,2.0", "2019-04-01 9:30,2.0", "bad-row,1.0", "timestamp,2.0",
    ], ids=["bad_date", "one_digit_hour", "bad_stamp", "header_like_stamp"])
    def test_bad_first_line_is_a_malformed_row(self, tmp_path, first):
        # a number in the line makes it data, not a header to drop
        path = write_csv(tmp_path, "x.csv",
                         f"{first}\n2019-04-01 09:30,100.0\n2019-04-01 10:00,101.0\n")
        for parse in (load_bars, rows_only):
            with pytest.raises(MalformedRow) as err:
                parse(path, "X")
            assert err.value.line_no == 1

    def test_non_utf8_byte_is_malformed_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"2019-04-01 09:30,100.0\n2019-04-01 10:00,1\xe9\n")
        with pytest.raises(MalformedRow) as err:
            load_bars(path, "X")
        assert err.value.line_no == 2

    def test_iso_offset_converted_to_local(self, tmp_path):
        # 13:30Z on 2019-04-01 is 09:30 in New York (EDT)
        path = write_csv(tmp_path, "x.csv",
                         "2019-04-01T13:30:00+00:00,100.0\n"
                         "2019-04-01T14:00:00Z,101.0\n")
        s = load_bars(path, "X", tz="America/New_York")
        assert str(s.timestamps[0]) == "2019-04-01T09:30:00"
        assert str(s.timestamps[1]) == "2019-04-01T10:00:00"


class TestAssetMeta:
    def test_crypto_sector_must_match(self):
        with pytest.raises(ConfigError):
            AssetMeta("BTC", Vehicle.CRYPTO, Sector.ENERGY)
        with pytest.raises(ConfigError):
            AssetMeta("XOM", Vehicle.STOCK, Sector.CRYPTO)

    def test_etf_sector_must_match(self):
        with pytest.raises(ConfigError):
            AssetMeta("SPY", Vehicle.US_ETF, Sector.FINANCIALS)
        assert AssetMeta("SPY", Vehicle.US_ETF, Sector.US_ETF).ticker == "SPY"

    def test_empty_ticker(self):
        with pytest.raises(ConfigError):
            AssetMeta("", Vehicle.STOCK, Sector.ENERGY)


class TestReportCellNames:
    """Report cells are not quoted, so names that would break one are refused."""

    @pytest.mark.parametrize("char", [",", ";", '"', "\r", "\n"])
    def test_ticker_rejected(self, char):
        with pytest.raises(ConfigError, match="holds one of"):
            AssetMeta(f"A{char}B", Vehicle.STOCK, Sector.ENERGY)

    @pytest.mark.parametrize("char", [",", ";", '"', "\r", "\n"])
    def test_subperiod_name_rejected(self, char):
        with pytest.raises(ConfigError, match="holds one of"):
            SubPeriod(f"a{char}b", date(2019, 4, 1), date(2019, 4, 30))

    def test_other_punctuation_accepted(self):
        assert AssetMeta("BRK.B", Vehicle.STOCK, Sector.FINANCIALS).ticker == "BRK.B"
        name = "Covid-19 pandemic (2020/21)"
        assert SubPeriod(name, date(2020, 3, 1), date(2021, 3, 1)).name == name


class TestFilterByMissing:
    def test_stock_two_percent_missing_rejected(self):
        grid = intraday_grid(100)
        s = series("X", grid[:98], np.full(98, 100.0))
        decision = filter_by_missing(s, grid, Vehicle.STOCK)
        assert not decision.accepted
        assert decision.missing_fraction == pytest.approx(0.02)

    def test_crypto_five_percent_missing_accepted(self):
        grid = intraday_grid(100)
        s = series("C", grid[:95], np.full(95, 100.0))
        decision = filter_by_missing(s, grid, Vehicle.CRYPTO)
        assert decision.accepted
        assert decision.missing_fraction == pytest.approx(0.05)

    def test_full_coverage(self):
        grid = intraday_grid(50)
        s = series("X", grid, np.full(50, 1.0))
        decision = filter_by_missing(s, grid, Vehicle.STOCK)
        assert decision.accepted and decision.missing_fraction == 0.0
        assert type(decision.accepted) is bool
        assert type(decision.missing_fraction) is float

    @pytest.mark.parametrize("order", [slice(None, None, -1), [0, 0, 1, 1, 2, 2, 3, 3]],
                             ids=["reversed", "each twice"])
    def test_grid_not_strictly_increasing_rejected(self, order):
        # the series matches its grid: a sorted, unique grid reads 0.0 missing
        grid = intraday_grid(4)
        s = series("X", grid, np.full(4, 1.0))
        with pytest.raises(DataError, match="^grid not strictly increasing$"):
            filter_by_missing(s, grid[order], Vehicle.STOCK)


class TestAlign:
    def test_identical_grids_no_fills(self):
        grid = intraday_grid(10)
        a = series("A", grid, np.linspace(100, 109, 10))
        b = series("B", grid, np.linspace(50, 59, 10))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        assert not panel.fills.any()
        assert panel.grid.tolist() == grid.tolist()
        assert panel.tickers == ("A", "B")

    def test_interior_gap_forward_filled(self):
        grid = intraday_grid(10)
        keep = np.ones(10, dtype=bool)
        keep[4] = False
        a = series("A", grid[keep], np.linspace(100, 108, 9))
        b = series("B", grid, np.linspace(50, 59, 10))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        assert len(panel.fill_log) == 1
        record = panel.fill_log[0]
        assert record.ticker == "A" and record.method == "ffill"
        assert record.timestamp == grid[4]
        # value carried from the previous observation
        assert panel.prices[0, 4] == panel.prices[0, 3]

    def test_leading_gap_back_filled(self):
        grid = intraday_grid(10)
        a = series("A", grid[2:], np.linspace(100, 107, 8))
        b = series("B", grid, np.linspace(50, 59, 10))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        assert panel.fills.tolist() == [[2, 2] + [0] * 8, [0] * 10]
        assert panel.prices[0, 0] == panel.prices[0, 2] == 100.0

    def test_overnight_bars_excluded(self):
        grid = intraday_grid(10)
        night = np.array(["2019-04-01T03:00:00"], dtype="datetime64[s]")
        a = series("A", np.sort(np.concatenate([night, grid])),
                   np.full(11, 100.0))
        b = series("B", grid, np.full(10, 50.0))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        assert panel.grid.tolist() == grid.tolist()

    def test_window_boundaries(self):
        # 09:30 in, 15:30 in, 16:00 out
        stamps = np.array(["2019-04-01T09:30:00", "2019-04-01T15:30:00",
                           "2019-04-01T16:00:00", "2019-04-02T09:30:00",
                           "2019-04-02T10:00:00"], dtype="datetime64[s]")
        a = series("A", stamps, np.full(5, 100.0))
        b = series("B", stamps, np.full(5, 50.0))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        kept = [str(t) for t in panel.grid]
        assert "2019-04-01T16:00:00" not in kept
        assert len(kept) == 4

    def test_unfillable_asset(self):
        grid = intraday_grid(10)
        night = np.array(["2019-04-01T03:00:00", "2019-04-01T04:00:00",
                          "2019-04-01T04:30:00"], dtype="datetime64[s]")
        a = series("A", night, np.full(3, 100.0))
        b = series("B", grid, np.full(10, 50.0))
        with pytest.raises(UnfillableAsset):
            align([a, b], [stock_meta("A"), stock_meta("B")])

    def test_quorum_excludes_minority_timestamps(self):
        grid = intraday_grid(12)
        a = series("A", grid, np.full(12, 100.0))
        b = series("B", grid[:8], np.full(8, 50.0))
        c = series("C", grid[:8], np.full(8, 25.0))
        panel = align([a, b, c],
                      [stock_meta("A"), stock_meta("B"), stock_meta("C")])
        # last 4 stamps live in 1 of 3 assets: below the 50% quorum
        assert panel.grid.tolist() == grid[:8].tolist()

    def test_quorum_boundary(self):
        grid = intraday_grid(12)
        a = series("A", grid, np.full(12, 100.0))
        b = series("B", grid[:10], np.full(10, 50.0))
        c = series("C", grid[:8], np.full(8, 25.0))
        d = series("D", grid[:8], np.full(8, 75.0))
        panel = align([a, b, c, d], [stock_meta(t) for t in "ABCD"])
        # stamps 8-9 live in exactly 2 of 4 assets (on the grid), 10-11 in 1 of 4
        assert panel.grid.tolist() == grid[:10].tolist()

    def test_align_idempotent(self):
        grid = intraday_grid(20)
        rng = np.random.default_rng(3)
        keep_a = np.ones(20, bool)
        keep_a[rng.choice(20, 3, replace=False)] = False
        a = series("A", grid[keep_a], 100 + np.arange(keep_a.sum(), dtype=float))
        b = series("B", grid, 50 + np.arange(20, dtype=float))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        again = align(
            [series(t, panel.grid, panel.prices[i])
             for i, t in enumerate(panel.tickers)],
            list(panel.assets))
        assert again.grid.tolist() == panel.grid.tolist()
        assert np.array_equal(again.prices, panel.prices)
        assert not again.fills.any()

    def test_fill_fraction_bounded_by_threshold(self):
        # drop below-threshold numbers of bars, then check the panel-level bound
        grid = intraday_grid(1000)
        rng = np.random.default_rng(11)
        series_list, metas = [], []
        for i in range(6):
            drop = rng.choice(np.arange(1, 1000), size=rng.integers(0, 9),
                              replace=False)
            keep = np.ones(1000, bool)
            keep[drop] = False
            series_list.append(series(f"S{i}", grid[keep],
                                      np.full(int(keep.sum()), 100.0)))
            metas.append(stock_meta(f"S{i}"))
        for s in series_list:
            assert filter_by_missing(s, grid, Vehicle.STOCK).accepted
        panel = align(series_list, metas)
        stock_threshold = 0.01
        assert np.count_nonzero(panel.fills) <= stock_threshold * panel.prices.size


def gappy_series(rng, n_assets: int, n_bars: int) -> list[RawSeries]:
    """Series on the 30-minute grid with random gaps, some leading, plus
    off-grid bars inside the window (some on the business day before the
    grid starts) and bars outside it."""
    grid = intraday_grid(n_bars)
    days = np.unique(grid.astype("datetime64[D]"))
    days = np.concatenate([[np.datetime64("2019-03-29")], days])
    series = []
    for i in range(n_assets):
        keep = rng.random(n_bars) > rng.uniform(0.0, 0.3)
        if rng.random() < 0.4:
            keep[:rng.integers(1, 8)] = False
        keep[rng.integers(n_bars // 2, n_bars)] = True
        minutes = rng.choice([9 * 60 + 45, 11 * 60 + 15, 15 * 60 + 59, 3 * 60,
                              16 * 60 + 30], size=rng.integers(0, 5))
        extra = (rng.choice(days, size=minutes.size).astype("datetime64[m]")
                 + minutes.astype("timedelta64[m]"))
        stamps = np.unique(np.concatenate([grid[keep], extra.astype("datetime64[s]")]))
        closes = 100 * np.exp(rng.normal(0, 0.01, stamps.size).cumsum())
        series.append(RawSeries(f"T{i}", stamps, closes))
    return series


def oracle_fill_log(series: list[RawSeries], grid: np.ndarray) -> list[tuple]:
    return oracles.fill_log({s.ticker: s.timestamps for s in series}, grid,
                            TRADING_START_MINUTE, TRADING_END_MINUTE)


def oracle_window(stamps: np.ndarray) -> list[bool]:
    return [oracles.in_trading_window(t.item(), TRADING_START_MINUTE,
                                      TRADING_END_MINUTE) for t in stamps]


class TestWindowMask:
    def test_matches_oracle_on_random_stamps(self):
        rng = np.random.default_rng(29)
        first, end = np.array(["1900-01-01", "2100-01-01"],
                              dtype="datetime64[s]").view(np.int64)
        stamps = rng.integers(first, end, 20_000).view("datetime64[s]")
        # half of them within two seconds of a window edge
        days = stamps[::2].astype("datetime64[D]").astype("datetime64[s]")
        edges = rng.choice([60 * TRADING_START_MINUTE, 60 * TRADING_END_MINUTE],
                           days.size) + rng.integers(-2, 3, days.size)
        stamps[::2] = days + edges.astype("timedelta64[s]")
        assert _window_mask(stamps).tolist() == oracle_window(stamps)

    @pytest.mark.parametrize("day", ["1901-07-01", "1969-12-31", "1970-01-01",
                                     "2019-04-01"])
    def test_edges(self, day):
        stamps = np.array([f"{day}T{t}" for t in ("09:29:59", "09:30:00",
                                                   "15:59:59", "16:00:00")],
                          dtype="datetime64[s]")
        assert _window_mask(stamps).tolist() == [False, True, True, False]
        assert oracle_window(stamps) == [False, True, True, False]


class TestFills:
    def test_fill_log_matches_oracle_through_restricts_and_slices(self):
        rng = np.random.default_rng(20)
        seen = {"bfill": 0, "ffill": 0, "leading_ffill": 0}
        for _ in range(60):
            series = gappy_series(rng, int(rng.integers(2, 7)),
                                  int(rng.integers(26, 140)))
            panel = align(series, [stock_meta(s.ticker) for s in series])
            expected = oracle_fill_log(series, panel.grid)
            assert panel.fill_log == tuple(expected)
            for ticker, stamp, method in expected:
                seen[method] += 1
                on_grid = np.intersect1d(series[int(ticker[1:])].timestamps,
                                         panel.grid)
                seen["leading_ffill"] += bool(method == "ffill" and on_grid.size
                                              and stamp < on_grid[0])
            for _ in range(5):
                if rng.random() < 0.4 and len(panel.assets) > 2:
                    tickers = rng.choice(panel.tickers, int(rng.integers(
                        2, len(panel.assets) + 1)), replace=False).tolist()
                    panel = panel.restrict(tickers)
                    expected = oracles.restrict_fill_log(expected, tickers)
                else:
                    days = np.unique(panel.grid.astype("datetime64[D]"))
                    a, b = sorted(rng.integers(0, days.size, 2))
                    try:
                        panel = slice_panel(panel, SubPeriod(
                            "s", days[a].item(), days[b].item()))
                    except EmptySlice:
                        continue
                    expected = oracles.slice_fill_log(expected, panel.grid)
                assert panel.fill_log == tuple(expected)
                assert panel.fills.shape == panel.prices.shape
        # the generator reaches every kind of fill
        assert min(seen.values()) > 0, seen

    def test_leading_gap_after_off_grid_bar_is_ffill(self):
        grid = intraday_grid(10)
        early = np.array(["2019-03-29T10:00:00"], dtype="datetime64[s]")
        a = series("A", np.concatenate([early, grid[2:]]),
                   np.concatenate([[42.0], np.full(8, 100.0)]))
        others = [series(t, grid, np.full(10, 50.0)) for t in "BC"]
        panel = align([a, *others], [stock_meta(t) for t in "ABC"])
        assert panel.grid.tolist() == grid.tolist()
        assert panel.fill_log == (("A", grid[0], "ffill"), ("A", grid[1], "ffill"))
        assert panel.fills[0, :3].tolist() == [1, 1, 0]
        assert panel.prices[0, 0] == panel.prices[0, 1] == 42.0

    def test_slice_starting_in_a_gap_keeps_ffill(self):
        grid = intraday_grid(26)  # two trading days
        keep = np.ones(26, dtype=bool)
        keep[13:15] = False  # the first two bars of day two
        a = series("A", grid[keep], np.full(24, 100.0))
        b = series("B", grid, np.full(26, 50.0))
        panel = align([a, b], [stock_meta("A"), stock_meta("B")])
        day_two = grid[13].astype("datetime64[D]").item()
        sliced = slice_panel(panel, SubPeriod("d2", day_two, day_two))
        assert sliced.fill_log == (("A", grid[13], "ffill"), ("A", grid[14], "ffill"))
        assert sliced.fills.tolist() == [[1, 1] + [0] * 11, [0] * 13]

    def test_observed_when_fills_left_out(self):
        panel = AlignedPanel(assets=(stock_meta("A"), stock_meta("B")),
                             grid=intraday_grid(5), prices=np.full((2, 5), 1.0))
        sub = SubPeriod("d", date(2019, 4, 1), date(2019, 4, 1))
        for p in (panel, panel.restrict(["B", "A"]), slice_panel(panel, sub)):
            assert p.fills.dtype == np.int8 and p.fills.shape == p.prices.shape
            assert not p.fills.any()
            assert p.fill_log == ()

    @pytest.mark.parametrize("fills", [np.zeros((2, 4), dtype=np.int8),
                                       np.zeros((2, 5), dtype=np.int64),
                                       [[0] * 5] * 2],
                             ids=["shape", "dtype", "list"])
    def test_wrong_shape_or_type_rejected(self, fills):
        with pytest.raises(DataError):
            AlignedPanel(assets=(stock_meta("A"), stock_meta("B")),
                         grid=intraday_grid(5), prices=np.full((2, 5), 1.0),
                         fills=fills)

    @pytest.mark.parametrize("code", [3, -1])
    def test_unknown_code_rejected(self, code):
        fills = np.zeros((2, 5), dtype=np.int8)
        fills[1, 2] = code
        with pytest.raises(DataError):
            AlignedPanel(assets=(stock_meta("A"), stock_meta("B")),
                         grid=intraday_grid(5), prices=np.full((2, 5), 1.0),
                         fills=fills)


class TestSlice:
    def make_panel(self):
        grid = intraday_grid(13 * 40)  # 40 business days from 2019-04-01
        a = series("A", grid, np.full(grid.size, 100.0))
        b = series("B", grid, np.full(grid.size, 50.0))
        return align([a, b], [stock_meta("A"), stock_meta("B")])

    def test_date_bounds_inclusive(self):
        panel = self.make_panel()
        sub = SubPeriod("Pre-Covid-19", date(2019, 4, 1), date(2019, 12, 31))
        sliced = slice_panel(panel, sub)
        days = sliced.grid.astype("datetime64[D]")
        assert days.min() >= np.datetime64("2019-04-01")
        assert days.max() <= np.datetime64("2019-12-31")
        assert sliced.grid.size == panel.grid.size  # all 40 days are in 2019

    def test_identity_slice(self):
        panel = self.make_panel()
        first = panel.grid[0].astype("datetime64[D]").item()
        last = panel.grid[-1].astype("datetime64[D]").item()
        sliced = slice_panel(panel, SubPeriod("all", first, last))
        assert np.array_equal(sliced.prices, panel.prices)
        assert sliced.grid.tolist() == panel.grid.tolist()

    def test_empty_slice(self):
        panel = self.make_panel()
        with pytest.raises(EmptySlice):
            slice_panel(panel, SubPeriod("none", date(2018, 1, 1),
                                         date(2018, 12, 31)))

    @given(st.integers(0, 39), st.integers(0, 39), st.integers(0, 39),
           st.integers(0, 39))
    @settings(max_examples=30, deadline=None)
    def test_slice_composition(self, a0, a1, b0, b1):
        panel = self.make_panel()
        days = np.unique(panel.grid.astype("datetime64[D]"))
        sub_a = SubPeriod("a", days[min(a0, a1)].item(), days[max(a0, a1)].item())
        sub_b = SubPeriod("b", days[min(b0, b1)].item(), days[max(b0, b1)].item())
        lo = max(sub_a.start, sub_b.start)
        hi = min(sub_a.end, sub_b.end)
        try:
            nested = slice_panel(slice_panel(panel, sub_a), sub_b)
        except EmptySlice:
            assert lo > hi or np.busday_count(lo, hi) < 1
            return
        direct = slice_panel(panel, SubPeriod("ab", lo, hi))
        assert nested.grid.tolist() == direct.grid.tolist()
        assert np.array_equal(nested.prices, direct.prices)


def check_slice_against_mask(panel: AlignedPanel, sub: SubPeriod) -> AlignedPanel | None:
    """``slice_panel`` equals the boolean-mask slice, layout and errors included."""
    try:
        grid, prices, fills = oracles.mask_slice_panel(panel, sub)
    except EmptySlice as exc:
        with pytest.raises(EmptySlice) as got:
            slice_panel(panel, sub)
        assert str(got.value) == str(exc)
        return None
    sliced = slice_panel(panel, sub)
    assert np.array_equal(sliced.grid, grid)
    assert np.array_equal(sliced.prices, prices)
    assert np.array_equal(sliced.fills, fills)
    assert sliced.prices.flags.f_contiguous and prices.flags.f_contiguous
    assert not np.shares_memory(sliced.prices, panel.prices)
    return sliced


class TestSliceMatchesMask:
    @staticmethod
    def random_panel(rng) -> AlignedPanel:
        """2-4 assets on an irregular grid over about 12 days, from a start
        before or after 1970, with days of one or two stamps and random fills."""
        start = np.datetime64(str(rng.choice(["1969-12-24", "2019-03-29",
                                               "2024-02-26"])), "s")
        n = int(rng.integers(3, 60))
        day = rng.integers(0, 12, n) * 86400
        second = rng.choice([0, 1, 34200, 57599, 86399], n) + rng.integers(0, 2, n)
        grid = np.unique(start + (day + second).astype("timedelta64[s]"))
        if grid.size < 3:
            grid = start + np.arange(3).astype("timedelta64[s]")
        n_assets = int(rng.integers(2, 5))
        fills = None
        if rng.random() < 0.7:
            fills = rng.choice(np.array([0, 1, 2], dtype=np.int8),
                               size=(n_assets, grid.size), p=[0.9, 0.07, 0.03])
        return AlignedPanel(assets=tuple(stock_meta(f"T{i}") for i in range(n_assets)),
                            grid=grid, prices=rng.uniform(1.0, 100.0, (n_assets, grid.size)),
                            fills=fills)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_subperiods_and_nested_slices(self, seed):
        rng = np.random.default_rng(seed)
        panel = self.random_panel(rng)
        first_day = panel.grid[0].astype("datetime64[D]")
        for _ in range(6):
            # days from 3 before the grid to 3 after it; a third are one day long
            a = first_day + np.timedelta64(int(rng.integers(-3, 16)), "D")
            b = a if rng.random() < 0.33 else (
                first_day + np.timedelta64(int(rng.integers(-3, 16)), "D"))
            sub = SubPeriod("s", min(a, b).item(), max(a, b).item())
            sliced = check_slice_against_mask(panel, sub)
            if sliced is not None and rng.random() < 0.6:
                panel = sliced  # slice the slice next

    def test_edge_subperiods(self):
        grid = np.array(["2019-04-01T09:30", "2019-04-01T10:00", "2019-04-02T09:30",
                         "2019-04-02T23:59:59", "2019-04-03T00:00", "2019-04-04T09:30",
                         "2019-04-04T10:00", "2019-04-04T10:30"], dtype="datetime64[s]")
        fills = np.zeros((2, grid.size), dtype=np.int8)
        fills[0, 1] = 1
        panel = AlignedPanel(assets=(stock_meta("A"), stock_meta("B")), grid=grid,
                             prices=np.arange(1.0, 17.0).reshape(2, 8), fills=fills)
        d = date.fromisoformat
        for start, end, kept in [("2019-03-01", "2019-03-31", 0),  # before
                                 ("2019-04-05", "2019-05-01", 0),  # after
                                 ("2019-04-01", "2019-04-01", 2),  # one day, 2 stamps
                                 ("2019-04-03", "2019-04-03", 1),  # one day, 1 stamp
                                 ("2019-04-02", "2019-04-03", 3),  # day ends included
                                 ("2019-04-04", "2019-04-04", 3),  # one day, no fills
                                 ("2019-03-01", "2019-05-01", 8)]:
            sliced = check_slice_against_mask(panel, SubPeriod("x", d(start), d(end)))
            assert (0 if sliced is None else sliced.grid.size) == (kept if kept >= 3 else 0)


class TestConfigFiles:
    def test_bundled_sector_map(self):
        sector_map = read_sector_map(sector_map_path())
        assert len(sector_map) == 222
        by_vehicle = {}
        for meta in sector_map.values():
            by_vehicle[meta.vehicle] = by_vehicle.get(meta.vehicle, 0) + 1
        assert by_vehicle[Vehicle.STOCK] == 146
        assert by_vehicle[Vehicle.US_ETF] == 49
        assert by_vehicle[Vehicle.CRYPTO] == 27
        assert sector_map["XOM"].sector is Sector.ENERGY
        assert sector_map["BTC"].vehicle is Vehicle.CRYPTO

    def test_bundled_subperiods(self):
        subs = read_subperiods(subperiods_path())
        assert [s.name for s in subs] == [
            "Pre-Covid-19", "Covid-19 pandemic", "Post-Covid-19",
            "Bull market", "Ukraine-Russia conflict"]
        assert subs[0].start == date(2019, 4, 1)
        assert subs[0].end == date(2019, 12, 31)
        assert subs[-1].end == date(2023, 5, 3)

    def test_sector_map_duplicate_ticker(self, tmp_path):
        path = write_csv(tmp_path, "s.txt",
                         "AAA stock Energy\nAAA stock Energy\n")
        with pytest.raises(ConfigError):
            read_sector_map(path)

    @pytest.mark.parametrize("reader,line,message", [
        (read_sector_map, "BBB bond Energy", "unknown vehicle 'bond'"),
        (read_sector_map, "BTC stock Crypto",
         "BTC: crypto vehicle and Crypto sector must coincide"),
        (read_subperiods, "b,2019-05-01,2019-04-01", "sub-period b: start after end"),
        (read_subperiods, " ,2019-04-01,2019-04-30", "sub-period name must be non-empty"),
        (read_sector_map, "A,B stock Energy",
         "ticker 'A,B' holds one of , ; \" or a line break"),
        (read_subperiods, 'a"b,2019-04-01,2019-04-30',
         "sub-period name 'a\"b' holds one of , ; \" or a line break"),
    ], ids=["vehicle", "sector", "start_after_end", "empty_name", "comma_in_ticker",
            "quote_in_name"])
    def test_bad_entry_names_file_and_line(self, tmp_path, reader, line, message):
        path = write_csv(tmp_path, "c.txt", f"# header\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_subperiods_reserved_name(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", "full,2019-01-01,2019-02-01\n")
        with pytest.raises(ConfigError):
            read_subperiods(path)

    def test_subperiods_duplicate_name(self, tmp_path):
        path = write_csv(tmp_path, "p.csv",
                         "a,2019-01-01,2019-02-01\na,2019-03-01,2019-04-01\n")
        with pytest.raises(ConfigError):
            read_subperiods(path)

    def test_subperiod_named_full_rejected(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", "full,2019-01-01,2019-02-01\n")
        with pytest.raises(ConfigError, match="the full period and 'full'"):
            read_subperiods(path)

    def test_subperiods_sharing_a_file_name_rejected(self, tmp_path):
        path = write_csv(tmp_path, "p.csv",
                         "a b,2019-01-01,2019-02-01\na_b,2019-03-01,2019-04-01\n")
        with pytest.raises(ConfigError, match="'a b' and 'a_b'"):
            read_subperiods(path)

    @pytest.mark.parametrize("text, message", [
        ("Pre,2019-01-01,2019-02-01\npre,2019-03-01,2019-04-01\n",
         "'Pre' and 'pre' would write the same report files (*_pre.csv)"),
        ("Full,2019-01-01,2019-02-01\n",
         "the full period and 'Full' would write the same report files (*_Full.csv)"),
    ], ids=["two_periods", "full"])
    def test_subperiods_differing_in_case_rejected(self, tmp_path, text, message):
        # one report file on a case-insensitive file system
        path = write_csv(tmp_path, "p.csv", text)
        with pytest.raises(ConfigError) as exc:
            read_subperiods(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("reader, good", [
        (read_sector_map, b"AAA stock Energy\n"),
        (read_subperiods, b"a,2019-01-01,2019-02-01\n")])
    @pytest.mark.parametrize("before, line_no", [
        (b"", 1), (b"# ok\n", 2), (b"# ok\r\n\n", 3), (b"# ok\n# caf", 2),
        (codecs.BOM_UTF8, 1), (codecs.BOM_UTF8 + b"# ok\n", 2)])
    def test_non_utf8_byte_is_config_error(self, tmp_path, reader, good,
                                           before, line_no):
        # a latin-1 comment; the error names the line that holds the byte
        path = tmp_path / "config"
        path.write_bytes(before + b"\xe9\n" + good)
        with pytest.raises(ConfigError) as err:
            reader(path)
        assert str(err.value).startswith(f"{path}:{line_no}: not UTF-8")

    # Windows editors start a UTF-8 file with a byte-order mark; it must not
    # stick to the first entry
    def test_sector_map_skips_byte_order_mark(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"AAA stock Energy\n")
        assert read_sector_map(path) == {
            "AAA": AssetMeta("AAA", Vehicle.STOCK, Sector.ENERGY)}

    def test_subperiods_skip_byte_order_mark(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"pre,2019-01-01,2019-02-01\n")
        assert read_subperiods(path) == (
            SubPeriod("pre", date(2019, 1, 1), date(2019, 2, 1)),)


class TestPanelInvariants:
    def test_requires_two_assets(self):
        grid = intraday_grid(5)
        with pytest.raises(DataError):
            AlignedPanel(assets=(stock_meta("A"),), grid=grid,
                         prices=np.full((1, 5), 1.0))

    def test_rejects_duplicate_tickers(self):
        grid = intraday_grid(5)
        with pytest.raises(DataError, match="duplicate tickers.*'A'"):
            AlignedPanel(assets=(stock_meta("A"), stock_meta("B"), stock_meta("A")),
                         grid=grid, prices=np.full((3, 5), 1.0))

    @pytest.mark.parametrize("stamps", [["2020-01-02T10:00", "NaT"], ["NaT"]],
                             ids=["trailing", "only"])
    def test_series_rejects_nat(self, stamps):
        # NaT is INT64_MIN: as integers, a stamp minus NaT wraps to a large
        # positive step
        with pytest.raises(DataError, match="A: timestamps: NaT"):
            series("A", np.array(stamps, "datetime64[s]"), [1.0] * len(stamps))

    @pytest.mark.parametrize("stamps", [["2020-01-02T10:00", "2020-01-02T10:00"],
                                        ["2020-01-02T10:00", "2020-01-02T09:00"]],
                             ids=["repeated", "decreasing"])
    def test_series_rejects_unordered_stamps(self, stamps):
        with pytest.raises(DataError, match="A: timestamps not strictly increasing"):
            series("A", np.array(stamps, "datetime64[s]"), [1.0, 1.0])

    def test_grid_rejects_trailing_nat(self):
        grid = np.append(intraday_grid(4), np.datetime64("NaT", "s"))
        with pytest.raises(DataError, match="panel grid: NaT"):
            AlignedPanel(assets=(stock_meta("A"), stock_meta("B")),
                         grid=grid, prices=np.full((2, 5), 1.0))

    def test_requires_three_timestamps(self):
        grid = intraday_grid(2)
        with pytest.raises(DataError):
            AlignedPanel(assets=(stock_meta("A"), stock_meta("B")),
                         grid=grid, prices=np.full((2, 2), 1.0))
