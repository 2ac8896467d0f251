"""Synthetic data generators with known ground truth.

The dispersion-series generators build csad values from an explicit
quadratic law in the market return, so the regression coefficients being
estimated have known true values. The planted two-block panel builds each
block around a hub asset (the block factor itself), which pins the
intra-block correlation at 0.9 between followers and makes the block's
spanning subtree a star; the max-modularity partition of the resulting
tree is then exactly the planted bipartition.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from herdscan.ingest import AlignedPanel, AssetMeta, Sector, SubPeriod, Vehicle
from herdscan.returns import CsadSeries

FACTOR_STD = 0.025  # market-return scale used by all generators

# Dispersion-scale constants calibrated so that E[s^2] = FACTOR_STD^2 / 9,
# which puts follower-follower correlation at 0.9 inside a block.
HERD_BASE, ANTI_BASE = 0.00756, 0.00444
DISP_SLOPE = 0.10
HERD_CURVE, ANTI_CURVE = -2.0, 2.0


def intraday_grid(n_bars: int, start: date = date(2019, 4, 1)) -> np.ndarray:
    """Thirty-minute bars, 13 per business day, from 09:30 to 15:30."""
    n_days = -(-n_bars // 13)
    days = np.busday_offset(np.datetime64(start, "D"), np.arange(n_days),
                            roll="forward")
    offsets = (9 * 60 + 30 + 30 * np.arange(13)).astype("timedelta64[m]")
    grid = (days.astype("datetime64[m]")[:, None] + offsets[None, :]).ravel()
    return grid[:n_bars].astype("datetime64[s]")


def stock_meta(ticker: str, sector: Sector = Sector.FINANCIALS) -> AssetMeta:
    return AssetMeta(ticker, Vehicle.STOCK, sector)


def panel_from_returns(returns: np.ndarray, metas: list[AssetMeta],
                       start: date = date(2019, 4, 1),
                       p0: float = 100.0) -> AlignedPanel:
    """Price panel whose log returns reproduce ``returns`` exactly."""
    n_assets, n_rets = returns.shape
    prices = p0 * np.exp(np.cumsum(
        np.hstack([np.zeros((n_assets, 1)), returns]), axis=1))
    order = np.argsort([m.ticker for m in metas])
    return AlignedPanel(assets=tuple(metas[i] for i in order),
                        grid=intraday_grid(n_rets + 1, start),
                        prices=prices[order])


def csad_series(market_return: np.ndarray, csad: np.ndarray) -> CsadSeries:
    return CsadSeries(grid=intraday_grid(market_return.size),
                      market_return=market_return, csad=csad)


def herding_market(seed: int, beta2: float, *, n_obs: int = 500,
                   sigma: float = 0.002, c0: float = 0.02,
                   c1: float = 0.8) -> CsadSeries:
    """Series following csad = c0 + c1*|rm| + beta2*rm^2 + sigma*noise."""
    rng = np.random.default_rng(seed)
    rm = rng.normal(0.0, FACTOR_STD, n_obs)
    vals = c0 + c1 * np.abs(rm) + beta2 * rm ** 2 + sigma * rng.standard_normal(n_obs)
    return csad_series(rm, vals)


def regime_market(seed: int, *, down_beta2: float = -3.0,
                  up_beta2: float = 1.0, n_obs: int = 500,
                  sigma: float = 0.002) -> CsadSeries:
    """Herding curvature only in the down regime; mild anti-herding up.

    The positive up-regime curvature keeps the true up coefficient away
    from zero, so "no herding attributed to the up regime" holds with
    margin rather than sitting exactly at the test's false-positive rate.
    """
    rng = np.random.default_rng(seed)
    rm = rng.normal(0.0, FACTOR_STD, n_obs)
    curve = np.where(rm < 0, down_beta2, up_beta2)
    vals = 0.02 + 0.8 * np.abs(rm) + curve * rm ** 2 + sigma * rng.standard_normal(n_obs)
    return csad_series(rm, vals)


def _block_returns(rng: np.random.Generator, factor: np.ndarray,
                   n_assets: int, base: float, curve: float) -> np.ndarray:
    """Hub asset = the factor; followers add state-dependent dispersion."""
    scale = np.maximum(base + DISP_SLOPE * np.abs(factor) + curve * factor ** 2,
                       1e-3)
    followers = factor[None, :] + scale[None, :] * rng.standard_normal(
        (n_assets - 1, factor.size))
    return np.vstack([factor[None, :], followers])


def planted_two_block_panel(seed: int, *, n_per_block: int = 10,
                            n_bars: int = 2000,
                            ) -> tuple[AlignedPanel, dict]:
    """Two hub-centered blocks: A herds (negative curvature), B does not.

    Follower-follower correlation is 0.9 within a block and about 0.1
    across blocks (block factors correlate at 1/9). Returns the panel and
    a ground-truth dict with the block membership.
    """
    rng = np.random.default_rng(seed)
    g0, ga, gb = rng.standard_normal((3, n_bars - 1))
    c = 1.0 / 9.0
    factor_a = FACTOR_STD * (np.sqrt(c) * g0 + np.sqrt(1 - c) * ga)
    factor_b = FACTOR_STD * (np.sqrt(c) * g0 + np.sqrt(1 - c) * gb)
    block_a = _block_returns(rng, factor_a, n_per_block, HERD_BASE, HERD_CURVE)
    block_b = _block_returns(rng, factor_b, n_per_block, ANTI_BASE, ANTI_CURVE)

    tickers_a = [f"A{i:02d}" for i in range(n_per_block)]
    tickers_b = [f"B{i:02d}" for i in range(n_per_block)]
    metas = ([stock_meta(t, Sector.ENERGY) for t in tickers_a]
             + [stock_meta(t, Sector.HEALTHCARE) for t in tickers_b])
    panel = panel_from_returns(np.vstack([block_a, block_b]), metas)
    truth = {"A": tuple(tickers_a), "B": tuple(tickers_b),
             "herding_block": "A"}
    return panel, truth


def vehicle_event_panel(seed: int, *, n_per_vehicle: int = 6,
                        event_bars: int = 1300, calm_bars: int = 700):
    """Three-vehicle panel where only crypto herds, and only in one window.

    Crypto dispersion follows the herding law during the event window and
    the anti-herding law afterwards; stocks and ETFs are anti-herding
    throughout. Returns (panel, event_subperiod, calm_subperiod).
    """
    from herdscan.ingest import SubPeriod

    rng = np.random.default_rng(seed)
    n_bars = event_bars + calm_bars

    def block(base_curve_pairs):
        segments = []
        for length, base, curve in base_curve_pairs:
            factor = rng.normal(0, FACTOR_STD, length)
            segments.append(_block_returns(rng, factor, n_per_vehicle,
                                           base, curve))
        return np.hstack(segments)

    crypto = block([(event_bars, HERD_BASE, HERD_CURVE),
                    (calm_bars, ANTI_BASE, ANTI_CURVE)])
    stock = block([(n_bars, ANTI_BASE, ANTI_CURVE)])
    etf = block([(n_bars, ANTI_BASE, ANTI_CURVE)])

    metas = ([AssetMeta(f"C{i:02d}", Vehicle.CRYPTO, Sector.CRYPTO)
              for i in range(n_per_vehicle)]
             + [AssetMeta(f"S{i:02d}", Vehicle.STOCK, Sector.FINANCIALS)
                for i in range(n_per_vehicle)]
             + [AssetMeta(f"E{i:02d}", Vehicle.US_ETF, Sector.US_ETF)
                for i in range(n_per_vehicle)])
    panel = panel_from_returns(np.vstack([crypto, stock, etf]), metas)

    grid_days = panel.grid.astype("datetime64[D]")
    event = SubPeriod("event", grid_days[0].item(),
                      grid_days[event_bars].item())
    calm = SubPeriod("calm", grid_days[event_bars + 1].item(),
                     grid_days[-1].item())
    return panel, event, calm


def clique_block_graph(rng: np.random.Generator):
    """Seeded connected graph with planted clique communities (n <= 8).

    Either one complete graph (whose optimum partition is everything
    together, Q = 0) or two clique blocks of size 3-4 joined by one or two
    bridges. Greedy modularity maximization is reliably optimal on this
    family; on unstructured sparse graphs it is not, so this is the regime
    in which a near-optimality bound is a meaningful assertion.
    """
    from herdscan.community import WeightedGraph

    if rng.random() < 0.25:
        sizes = [int(rng.integers(4, 9))]
    else:
        sizes = list(rng.choice([3, 4], size=2))
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    edges = []
    for blk in blocks:
        edges += [(blk[i], blk[j], 1.0) for i in range(len(blk))
                  for j in range(i + 1, len(blk))]
    if len(blocks) == 2:
        n_bridges = int(rng.integers(1, 3))
        seen = set()
        while len(seen) < n_bridges:
            u = int(rng.choice(blocks[0]))
            v = int(rng.choice(blocks[1]))
            seen.add((u, v))
        edges += [(u, v, 1.0) for u, v in sorted(seen)]
    return WeightedGraph.from_edges(range(start), edges)


def random_walk_panel(seed: int, n_assets: int, n_bars: int,
                      metas: list[AssetMeta] | None = None,
                      start: date = date(2019, 4, 1),
                      factor_load: float = 0.3) -> AlignedPanel:
    """Correlated random-walk prices; generic panel for structural tests."""
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal(n_bars - 1)
    noise = rng.standard_normal((n_assets, n_bars - 1))
    returns = 0.002 * (factor_load * factor[None, :] + noise)
    if metas is None:
        metas = [stock_meta(f"S{i:03d}") for i in range(n_assets)]
    return panel_from_returns(returns, metas, start=start)


def flat_day_panel() -> tuple[AlignedPanel, SubPeriod]:
    """12 random-walk stocks, S003's price held flat all of 2019-04-03, and
    that day as a sub-period: the vehicle fit works, the correlations cannot."""
    panel = random_walk_panel(0, 12, 260)
    day = panel.grid.astype("datetime64[D]") == np.datetime64("2019-04-03")
    row = panel.tickers.index("S003")
    panel.prices[row, day] = panel.prices[row, day][0]
    return panel, SubPeriod("flat", date(2019, 4, 3), date(2019, 4, 3))
