"""Seeded inputs for the three benchmark workloads.

Each workload returns a ``Prepared``: a callable that performs one timed
run into an output directory, plus the ``Expected`` facts the output checks
compare the report against. The expectations are computed here from the
generated data, never read back from the program.

- ``ingest-222x13k``: the command line over one CSV per asset of the bundled
  222-asset sector map (the acceptance-9 workload). Parsing dominates.
- ``graph-1000x2600``: the library API on an in-memory 1000-asset panel with
  sector factors. The correlation -> MST -> Louvain layer dominates.
- ``periods-60x26k``: the library API on a long, narrow panel aligned with
  gaps, cut into 48 sub-periods with HAC errors. Slicing and the regressions
  dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time
from pathlib import Path
from typing import Callable
from zoneinfo import ZoneInfo

import numpy as np

ZONE = ZoneInfo("America/New_York")
START = date(2019, 4, 1)
VEHICLES = ("stock", "etf", "crypto")
#: Per-bar return scale of the factor model, per vehicle.
VOL = {"stock": 0.002, "etf": 0.0015, "crypto": 0.005}
#: Missing fraction of the shared grid that each vehicle's accepted assets
#: get, and the fraction a planted (over-threshold) asset gets. The
#: program's thresholds are 1 % (stock), 12 % (etf) and 10 % (crypto).
GAP = {"stock": 0.005, "etf": 0.02, "crypto": 0.02}
PLANTED_GAP = {"stock": 0.02, "etf": 0.15, "crypto": 0.13}


@dataclass(frozen=True)
class Expected:
    """What a correct report of one run must show."""

    tickers: tuple[str, ...]        # accepted assets, ascending
    rejected: frozenset[str]
    grid: np.ndarray                # datetime64[s], the shared grid
    prices: np.ndarray              # [len(tickers), grid.size], gaps filled
    subperiods: tuple[tuple[str, date, date], ...]  # configured, no "full"
    vehicles: tuple[str, ...]       # vehicles among the accepted assets


@dataclass(frozen=True)
class Prepared:
    run: Callable[[Path], None]     # one timed run; raises on failure
    expected: Expected
    sizes: dict                     # input sizes, recorded with the result
    cells: int                      # assets x bars, the base of cells_per_s


# --- shared generators ---------------------------------------------------------

def bar_grid(n_bars: int, bars_per_day: int) -> np.ndarray:
    """``bars_per_day`` 30-minute bars from 09:30 on consecutive business days."""
    n_days = -(-n_bars // bars_per_day)
    days = np.busday_offset(np.datetime64(START, "D"), np.arange(n_days),
                            roll="forward")
    offsets = (570 + 30 * np.arange(bars_per_day)).astype("timedelta64[m]")
    grid = (days.astype("datetime64[m]")[:, None] + offsets[None, :]).ravel()
    return grid[:n_bars].astype("datetime64[s]")


def factor_prices(rng: np.random.Generator, vehicles: list[str],
                  sectors: list[str], n_bars: int) -> np.ndarray:
    """Prices from a market factor plus one factor per sector plus noise."""
    n = len(vehicles)
    labels = sorted(set(sectors))
    sector_idx = np.array([labels.index(s) for s in sectors])
    market = rng.standard_normal(n_bars - 1)
    by_sector = rng.standard_normal((len(labels), n_bars - 1))
    b_market = rng.uniform(0.5, 1.5, n)[:, None]
    b_sector = rng.uniform(0.5, 1.5, n)[:, None]
    scale = np.array([VOL[v] for v in vehicles])[:, None]
    returns = scale * (b_market * market + b_sector * by_sector[sector_idx]
                       + rng.standard_normal((n, n_bars - 1)))
    p0 = rng.uniform(10.0, 500.0, n)[:, None]
    return p0 * np.exp(np.hstack([np.zeros((n, 1)), np.cumsum(returns, axis=1)]))


def gap_masks(rng: np.random.Generator, fractions: np.ndarray,
              n_bars: int) -> np.ndarray:
    """Observed-cell masks with exactly round(fraction * n_bars) gaps per row."""
    observed = np.ones((fractions.size, n_bars), dtype=bool)
    for row, frac in enumerate(fractions):
        k = int(round(frac * n_bars))
        observed[row, rng.choice(n_bars, size=k, replace=False)] = False
    return observed


def filled(prices: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Forward-fill unobserved cells; a leading gap takes the first observation."""
    cols = np.arange(prices.shape[1])
    last = np.maximum.accumulate(np.where(observed, cols, -1), axis=1)
    first = observed.argmax(axis=1)[:, None]
    idx = np.where(last < 0, first, last)
    return np.take_along_axis(prices, idx, axis=1)


def equal_subperiods(grid: np.ndarray, n: int) -> tuple[tuple[str, date, date], ...]:
    """``n`` sub-periods covering the grid's days in equal-length runs."""
    days = np.unique(grid.astype("datetime64[D]"))
    cuts = np.linspace(0, days.size, n + 1).round().astype(int)
    return tuple((f"p{i + 1:02d}", days[a].item(), days[b - 1].item())
                 for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])))


def to_subperiods(subs):
    from herdscan.ingest import SubPeriod
    return tuple(SubPeriod(name, start, end) for name, start, end in subs)


def library_run(panel, subs, *, hac: bool) -> Callable[[Path], None]:
    """One run through the library API: analyze, then emit the report."""
    from herdscan import pipeline

    def run(out: Path) -> None:
        result = pipeline.run_analysis(panel, subs, hac=hac)
        pipeline.emit_report(result, out)
    return run


def synthetic_universe(n_assets: int) -> list[tuple[str, str, str]]:
    """(ticker, vehicle, sector) rows in the bundled map's vehicle proportions."""
    stock_sectors = ["CommunicationServices", "ConsumerDiscretionary",
                     "ConsumerStaples", "Energy", "Financials", "Healthcare",
                     "Industrials", "InformationTechnology", "Materials",
                     "RealEstate", "Utilities"]
    n_crypto = max(2, round(n_assets * 27 / 222))
    n_etf = max(2, round(n_assets * 49 / 222))
    rows = []
    for i in range(n_assets - n_crypto - n_etf):
        rows.append((f"S{i:04d}", "stock", stock_sectors[i % len(stock_sectors)]))
    rows += [(f"E{i:04d}", "etf", "UsEtf") for i in range(n_etf)]
    rows += [(f"C{i:04d}", "crypto", "Crypto") for i in range(n_crypto)]
    return sorted(rows)


def aligned_metas(rows):
    from herdscan.ingest import AssetMeta, Sector, Vehicle
    return [AssetMeta(t, Vehicle.parse(v), Sector.parse(s)) for t, v, s in rows]


# --- ingest-222x13k ---------------------------------------------------------------

def read_bundled_map() -> list[tuple[str, str, str]]:
    from herdscan.data import sector_map_path
    rows = []
    for line in sector_map_path().read_text().splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            rows.append((body[0].upper(), body[1], body[2]))
    return sorted(rows)


def read_bundled_subperiods() -> tuple[tuple[str, date, date], ...]:
    from herdscan.data import subperiods_path
    subs = []
    for line in subperiods_path().read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            name, start, end = (p.strip() for p in body.split(","))
            subs.append((name, date.fromisoformat(start), date.fromisoformat(end)))
    return tuple(subs)


def utc_strings(local: np.ndarray) -> list[str]:
    """ISO-8601 UTC timestamps with a ``Z`` suffix for New York wall times.

    Every bar falls between 08:00 and 20:00 local, so the UTC offset at
    noon of its day applies.
    """
    days = local.astype("datetime64[D]")
    uniq, inverse = np.unique(days, return_inverse=True)
    offsets = np.array([
        int(datetime.combine(d.item(), time(12), ZONE).utcoffset().total_seconds())
        for d in uniq], dtype=np.int64)
    utc = local - offsets[inverse].astype("timedelta64[s]")
    return [s + "Z" for s in np.datetime_as_string(utc, unit="s").tolist()]


def write_bar_file(path: Path, rng: np.random.Generator, vehicle: str,
                   stamps: np.ndarray, closes: np.ndarray) -> int:
    """Write one asset's bars in a randomly chosen layout; returns rows written.

    Stocks and ETFs use local wall-clock stamps in one of two ISO spellings.
    Cryptos use UTC with a ``Z`` suffix and add two out-of-window bars a day.
    Files have 2 or 6 columns, and about half start with a header row.
    """
    if vehicle == "crypto":
        days = np.unique(stamps.astype("datetime64[D]"))
        extra = (days.astype("datetime64[s]")[:, None]
                 + np.array([16 * 3600 + 1800, 19 * 3600],
                            dtype="timedelta64[s]")[None, :]).ravel()
        extra_px = closes[rng.integers(0, closes.size, extra.size)]
        order = np.argsort(np.concatenate([stamps, extra]), kind="stable")
        stamps = np.concatenate([stamps, extra])[order]
        closes = np.concatenate([closes, extra_px])[order]
        text_stamps = utc_strings(stamps)
    elif rng.random() < 0.5:
        text_stamps = [s.replace("T", " ")
                       for s in np.datetime_as_string(stamps, unit="m").tolist()]
    else:
        text_stamps = np.datetime_as_string(stamps, unit="s").tolist()
    text_closes = list(map(repr, closes.tolist()))
    if rng.random() < 0.5:
        volumes = rng.integers(100, 100_000, size=len(text_closes)).astype(str).tolist()
        lines = [f"{t},{c},{c},{c},{c},{v}"
                 for t, c, v in zip(text_stamps, text_closes, volumes)]
        header = "timestamp,open,high,low,close,volume"
    else:
        lines = [f"{t},{c}" for t, c in zip(text_stamps, text_closes)]
        header = "timestamp,close"
    if rng.random() < 0.5:
        lines.insert(0, header)
    path.write_text("\n".join(lines) + "\n")
    return len(text_closes)


def prepare_ingest(seed: int, work: Path, *, n_bars: int = 13_000,
                   bars_per_day: int = 13, n_assets: int | None = None) -> Prepared:
    from herdscan import cli
    from herdscan.data import sector_map_path

    rng = np.random.default_rng(seed)
    universe = read_bundled_map()
    if n_assets is not None:
        universe = [r for v in VEHICLES
                    for r in [u for u in universe if u[1] == v][:n_assets // 3]]
    tickers = [t for t, _, _ in universe]
    vehicles = [v for _, v, _ in universe]
    grid = bar_grid(n_bars, bars_per_day)
    prices = factor_prices(rng, vehicles, [s for _, _, s in universe], n_bars)

    # Plant one stock and one ETF over their threshold, and a crypto in half
    # of the seeds.
    planted = set()
    for v in ("stock", "etf") + (("crypto",) if rng.random() < 0.5 else ()):
        candidates = [t for t, tv in zip(tickers, vehicles) if tv == v]
        planted.add(candidates[rng.integers(len(candidates))])
    fractions = np.array([PLANTED_GAP[v] if t in planted else GAP[v]
                          for t, v in zip(tickers, vehicles)])
    observed = gap_masks(rng, fractions, n_bars)

    data = work / "bars"
    data.mkdir(parents=True)
    rows = 0
    for i, (ticker, vehicle) in enumerate(zip(tickers, vehicles)):
        rows += write_bar_file(data / f"{ticker}.csv", rng, vehicle,
                               grid[observed[i]], prices[i, observed[i]])

    keep = [i for i, t in enumerate(tickers) if t not in planted]
    expected = Expected(
        tickers=tuple(tickers[i] for i in keep),
        rejected=frozenset(planted),
        grid=grid,
        prices=filled(prices[keep], observed[keep]),
        subperiods=read_bundled_subperiods(),
        vehicles=tuple(sorted({vehicles[i] for i in keep})),
    )
    argv = ["analyze", "--data-dir", str(data), "--sectors", str(sector_map_path())]

    def run(out: Path) -> None:
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"herdscan analyze exited with code {code}")

    sizes = {"assets": len(tickers), "bars": n_bars, "csv_rows": rows,
             "planted": sorted(planted),
             "gap_cells": int((~observed[keep]).sum()),
             "subperiods": len(expected.subperiods)}
    return Prepared(run, expected, sizes, len(tickers) * n_bars)


# --- graph-1000x2600 ----------------------------------------------------------------

def graph_panel(seed: int, n_assets: int, n_bars: int):
    """The graph workload's in-memory panel and its raw price matrix."""
    from herdscan.ingest import AlignedPanel

    rng = np.random.default_rng(seed)
    universe = synthetic_universe(n_assets)
    grid = bar_grid(n_bars, 13)
    prices = factor_prices(rng, [v for _, v, _ in universe],
                           [s for _, _, s in universe], n_bars)
    panel = AlignedPanel(assets=aligned_metas(universe), grid=grid, prices=prices)
    return panel, universe, grid, prices


def prepare_graph(seed: int, work: Path, *, n_assets: int = 1000,
                  n_bars: int = 2600, n_subs: int = 5) -> Prepared:
    panel, universe, grid, prices = graph_panel(seed, n_assets, n_bars)
    subs = equal_subperiods(grid, n_subs)
    expected = Expected(
        tickers=tuple(t for t, _, _ in universe), rejected=frozenset(),
        grid=grid, prices=prices, subperiods=subs,
        vehicles=tuple(sorted({v for _, v, _ in universe})))
    sizes = {"assets": n_assets, "bars": n_bars, "subperiods": n_subs}
    return Prepared(library_run(panel, to_subperiods(subs), hac=False),
                    expected, sizes, n_assets * n_bars)


# --- periods-60x26k ------------------------------------------------------------------

def prepare_periods(seed: int, work: Path, *, n_assets: int = 60,
                    n_bars: int = 26_000, n_subs: int = 48) -> Prepared:
    from herdscan.ingest import RawSeries, align

    rng = np.random.default_rng(seed)
    universe = synthetic_universe(n_assets)
    grid = bar_grid(n_bars, 13)
    prices = factor_prices(rng, [v for _, v, _ in universe],
                           [s for _, _, s in universe], n_bars)
    observed = gap_masks(rng, np.full(n_assets, 0.01), n_bars)
    series = [RawSeries(t, grid[observed[i]], prices[i, observed[i]])
              for i, (t, _, _) in enumerate(universe)]
    panel = align(series, aligned_metas(universe))
    subs = equal_subperiods(grid, n_subs)
    expected = Expected(
        tickers=tuple(t for t, _, _ in universe), rejected=frozenset(),
        grid=grid, prices=filled(prices, observed), subperiods=subs,
        vehicles=tuple(sorted({v for _, v, _ in universe})))
    sizes = {"assets": n_assets, "bars": n_bars, "subperiods": n_subs,
             "fill_cells": len(panel.fill_log), "hac": True}
    return Prepared(library_run(panel, to_subperiods(subs), hac=True),
                    expected, sizes, n_assets * n_bars)


#: name -> (prepare, full-size arguments, tiny arguments for the smoke tests)
WORKLOADS = {
    "ingest-222x13k": (prepare_ingest, {},
                       {"n_bars": 1000, "bars_per_day": 1, "n_assets": 15}),
    "graph-1000x2600": (prepare_graph, {}, {"n_assets": 40, "n_bars": 600}),
    "periods-60x26k": (prepare_periods, {},
                       {"n_assets": 12, "n_bars": 3000, "n_subs": 6}),
}
