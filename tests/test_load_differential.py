"""``load_panel`` builds the panel the loader's three earlier steps built.

``oracles.three_step_panel`` sorts the stamps into a grid twice and
searches every series twice; ``load_panel`` sorts once and searches once.
On seeded random series the two give the same grid, prices, fill codes,
assets and decisions, or the same error, on a one- and a two-worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from herdscan import pipeline
from herdscan.errors import DataError
from herdscan.ingest import (
    TRADING_END_MINUTE,
    TRADING_START_MINUTE,
    AssetMeta,
    RawSeries,
    Sector,
    Vehicle,
)
from herdscan.pipeline import load_panel

import oracles
from generators import intraday_grid

SECTORS = {Vehicle.STOCK: Sector.FINANCIALS, Vehicle.US_ETF: Sector.US_ETF,
           Vehicle.CRYPTO: Sector.CRYPTO}
#: Minutes of the day for bars outside the window: before the open, the
#: close itself, the evening.
OUTSIDE = np.array([3 * 60, 9 * 60 + 29, 16 * 60, 20 * 60 + 15])


def random_bars(rng: np.random.Generator) -> tuple[dict[str, RawSeries],
                                                    dict[str, AssetMeta]]:
    """2-7 series by file stem, and their assets, on a 30-minute lattice of
    3-60 bars. They have random gaps, some of them leading; off-lattice
    in-window bars drawn from a pool the series share, so some reach the
    quorum; bars outside the window; and now and then no in-window bar."""
    n_bars = int(rng.integers(3, 61))
    lattice = intraday_grid(n_bars)
    days = np.unique(lattice.astype("datetime64[D]"))
    shared = (rng.choice(days, 6).astype("datetime64[s]")
              + rng.integers(60 * TRADING_START_MINUTE, 60 * TRADING_END_MINUTE,
                             6).astype("timedelta64[s]"))
    series, metas = {}, {}
    for i in range(int(rng.integers(2, 8))):
        # file stems in either case, so file order and ticker order differ
        stem = f"{'ab'[rng.integers(2)]}{i}"
        stem = stem.upper() if rng.random() < 0.5 else stem
        ticker = stem.upper()
        vehicle = list(SECTORS)[rng.integers(3)]
        keep = rng.random(n_bars) >= rng.choice([0.0, 0.01, 0.05, 0.1, 0.2, 0.5])
        if rng.random() < 0.3:
            keep[:rng.integers(1, 4)] = False
        outside = rng.choice(OUTSIDE, int(rng.integers(1, 4)))
        stamps = [rng.choice(days, outside.size).astype("datetime64[s]")
                  + (60 * outside).astype("timedelta64[s]")]
        if rng.random() > 0.05:
            stamps += [lattice[keep], shared[rng.random(shared.size) < 0.5]]
        stamps = np.unique(np.concatenate(stamps))
        closes = 100 * np.exp(rng.normal(0, 0.01, stamps.size).cumsum())
        series[stem] = RawSeries(ticker, stamps, closes)
        metas[ticker] = AssetMeta(ticker, vehicle, SECTORS[vehicle])
    return series, metas


@pytest.mark.parametrize("cap", [1, 2])
def test_load_panel_matches_three_steps(tmp_path, monkeypatch, cap):
    rng = np.random.default_rng(31)
    monkeypatch.setattr(pipeline, "thread_cap", lambda: cap)
    seen = {"equal": 0, "grid_moved": 0, "error": 0}
    for case in range(400):
        series, metas = random_bars(rng)
        directory = tmp_path / str(case)
        directory.mkdir()
        for stem in series:
            (directory / f"{stem}.csv").touch()
        by_ticker = {s.ticker: s for s in series.values()}
        monkeypatch.setattr(pipeline, "load_bars",
                            lambda path, ticker, *, tz: by_ticker[ticker])
        # the series in the order load_panel parses them: by file name
        in_file_order = [series[stem] for stem in sorted(series)]
        try:
            expected = oracles.three_step_panel(in_file_order, metas,
                                                TRADING_START_MINUTE,
                                                TRADING_END_MINUTE)
        except DataError as err:
            with pytest.raises(type(err)) as got:
                load_panel(directory, metas)
            assert str(got.value) == str(err)
            seen["error"] += 1
            continue
        provisional, tickers, grid, prices, fills, decisions = expected
        panel, got_decisions = load_panel(directory, metas)
        assert panel.tickers == tickers
        assert panel.assets == tuple(metas[t] for t in tickers)
        assert panel.grid.tobytes() == grid.tobytes()
        assert panel.prices.tobytes() == prices.tobytes()
        assert panel.fills.tobytes() == fills.tobytes()
        assert list(got_decisions.items()) == list(decisions.items())
        assert all(type(d.accepted) is bool for d in got_decisions.values())
        seen["equal"] += 1
        seen["grid_moved"] += provisional.tobytes() != grid.tobytes()
    # the cases reach each outcome, and rejects that move the final grid
    assert min(seen.values()) >= 20, seen
