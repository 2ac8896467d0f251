"""Log returns, cross-sectional market return and CSAD series.

The dispersion measure is the cross-sectional mean absolute deviation of
asset log returns from their equal-weight mean at each timestamp. Market
regimes split on the sign of the market return: an "up" bar has a strictly
positive mean return, a "down" bar strictly negative, and a zero mean
return belongs to neither regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import AlignedPanel, AssetMeta, _rows


@dataclass(frozen=True)
class ReturnPanel:
    """Log returns per asset: returns[i, t] = ln(price[i, t+1] / price[i, t])."""

    assets: tuple[AssetMeta, ...]
    grid: np.ndarray      # datetime64[s]; first source timestamp dropped
    returns: np.ndarray   # float64 [n_assets, n_timestamps]

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype="datetime64[s]"))
        object.__setattr__(self, "returns", np.asarray(self.returns, dtype=np.float64))
        if self.returns.shape != (len(self.assets), self.grid.size):
            raise DataError("return matrix shape does not match assets x grid")
        if not np.isfinite(self.returns).all():
            raise DataError("returns must be finite")

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(a.ticker for a in self.assets)

    def restrict(self, tickers) -> "ReturnPanel":
        rows = _rows(self.assets, tickers)
        return ReturnPanel(assets=tuple(self.assets[i] for i in rows),
                           grid=self.grid, returns=self.returns[rows])

    def row(self, ticker: str) -> np.ndarray:
        return self.returns[self.tickers.index(ticker)]


@dataclass(frozen=True)
class CsadSeries:
    """Per-timestamp market return and cross-sectional absolute deviation."""

    grid: np.ndarray
    market_return: np.ndarray
    csad: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype="datetime64[s]"))
        object.__setattr__(self, "market_return",
                           np.asarray(self.market_return, dtype=np.float64))
        object.__setattr__(self, "csad", np.asarray(self.csad, dtype=np.float64))
        n = self.grid.size
        if self.market_return.shape != (n,) or self.csad.shape != (n,):
            raise DataError("csad series arrays must match the grid length")
        if (self.csad < 0).any():
            raise DataError("csad values must be non-negative")

    def __len__(self) -> int:
        return int(self.grid.size)


def log_returns(panel: AlignedPanel) -> ReturnPanel:
    """Convert a price panel into log returns (one column shorter)."""
    if panel.grid.size < 2:
        raise DataError("need at least 2 timestamps for returns")
    ratios = panel.prices[:, 1:] / panel.prices[:, :-1]
    return ReturnPanel(assets=panel.assets, grid=panel.grid[1:],
                       returns=np.log(ratios))


def csad(rp: ReturnPanel) -> CsadSeries:
    """Equal-weight market return and mean absolute deviation per timestamp."""
    if len(rp.assets) < 2:
        raise DataError("csad needs at least 2 assets")
    market = rp.returns.mean(axis=0)
    dev = rp.returns - market
    np.abs(dev, out=dev)  # in place: one temporary the panel's size, not two
    dispersion = dev.mean(axis=0)
    return CsadSeries(grid=rp.grid, market_return=market, csad=dispersion)


def up_down_masks(cs: CsadSeries) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (up, down) regime masks; both false where the mean return is 0."""
    return cs.market_return > 0, cs.market_return < 0
