"""Intraday bar ingestion and panel alignment.

Input is one CSV per asset, either ``timestamp,open,high,low,close,volume``
or ``timestamp,close``; the first non-blank line may be a header. Only the
close column is used. Timestamps are interpreted as exchange-local wall
clock (default zone America/New_York); tz-aware inputs are converted into
that zone and the offset is dropped, so every downstream comparison is on
one clock.

Plain-ASCII files with ``\\n`` line ends, no quotes, and every stamp in
one spelling out of ``YYYY-MM-DD HH:MM`` and ``YYYY-MM-DD HH:MM:SS`` (``T``
or space between date and time), each optionally with a ``Z`` suffix, are
parsed in one numpy pass. Any other file, and any file with an error in
it, goes through the row-by-row parser, which reads every ISO-8601 form
``datetime.fromisoformat`` accepts and reports errors with their line
number.

The alignment step restricts every series to the regular trading window
(09:30 inclusive to 16:00 exclusive by default), builds a shared grid from
timestamps present in at least half of the assets, and forward-fills the
remaining gaps, marking every filled cell in the panel's ``fills`` array.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime, time
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateTimestamp,
    EmptyGrid,
    EmptySlice,
    MalformedRow,
    NonPositivePrice,
    UnfillableAsset,
)

DEFAULT_TIMEZONE = "America/New_York"


class Vehicle(Enum):
    """Investment vehicle classes covered by the analysis."""

    STOCK = "stock"
    US_ETF = "etf"
    CRYPTO = "crypto"

    @classmethod
    def parse(cls, token: str) -> "Vehicle":
        key = token.strip().lower().replace("_", "").replace("-", "")
        aliases = {"stock": cls.STOCK, "etf": cls.US_ETF, "usetf": cls.US_ETF,
                   "crypto": cls.CRYPTO}
        try:
            return aliases[key]
        except KeyError:
            raise ConfigError(f"unknown vehicle {token!r}") from None


class Sector(Enum):
    """13 sector labels: 11 stock sectors plus the two non-stock classes."""

    CRYPTO = "Crypto"
    US_ETF = "UsEtf"
    COMMUNICATION_SERVICES = "CommunicationServices"
    UTILITIES = "Utilities"
    REAL_ESTATE = "RealEstate"
    MATERIALS = "Materials"
    INFORMATION_TECHNOLOGY = "InformationTechnology"
    INDUSTRIALS = "Industrials"
    HEALTHCARE = "Healthcare"
    FINANCIALS = "Financials"
    ENERGY = "Energy"
    CONSUMER_STAPLES = "ConsumerStaples"
    CONSUMER_DISCRETIONARY = "ConsumerDiscretionary"

    @classmethod
    def parse(cls, token: str) -> "Sector":
        key = token.strip().lower().replace("_", "").replace("-", "").replace(" ", "")
        for member in cls:
            if member.value.lower() == key:
                return member
        raise ConfigError(f"unknown sector {token!r}")


#: Maximum tolerated missing fraction per vehicle.
DEFAULT_MISSING_THRESHOLDS: Mapping[Vehicle, float] = {
    Vehicle.STOCK: 0.01,
    Vehicle.CRYPTO: 0.10,
    Vehicle.US_ETF: 0.12,
}


@dataclass(frozen=True)
class AssetMeta:
    """Static asset metadata: ticker, vehicle class and sector label."""

    ticker: str
    vehicle: Vehicle
    sector: Sector

    def __post_init__(self):
        if not self.ticker:
            raise ConfigError("empty ticker")
        if (self.vehicle is Vehicle.CRYPTO) != (self.sector is Sector.CRYPTO):
            raise ConfigError(
                f"{self.ticker}: crypto vehicle and Crypto sector must coincide")
        if (self.vehicle is Vehicle.US_ETF) != (self.sector is Sector.US_ETF):
            raise ConfigError(
                f"{self.ticker}: ETF vehicle and UsEtf sector must coincide")


@dataclass(frozen=True)
class TradingWindow:
    """Half-open daily time-of-day window [start, end)."""

    start: time = time(9, 30)
    end: time = time(16, 0)

    def __post_init__(self):
        if self.start >= self.end:
            raise ConfigError("trading window start must precede end")

    @property
    def start_minute(self) -> int:
        return self.start.hour * 60 + self.start.minute

    @property
    def end_minute(self) -> int:
        return self.end.hour * 60 + self.end.minute


DEFAULT_TRADING_WINDOW = TradingWindow()


@dataclass(frozen=True)
class RawSeries:
    """One asset's close series, strictly increasing timestamps."""

    ticker: str
    timestamps: np.ndarray  # datetime64[s], exchange-local wall clock
    closes: np.ndarray      # float64, > 0

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        px = np.asarray(self.closes, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "closes", px)
        if ts.shape != px.shape or ts.ndim != 1:
            raise DataError(f"{self.ticker}: timestamps/closes shape mismatch")
        if ts.size > 1 and not (np.diff(ts.astype("int64")) > 0).all():
            raise DataError(f"{self.ticker}: timestamps not strictly increasing")
        if px.size and (not np.isfinite(px).all() or (px <= 0).any()):
            raise DataError(f"{self.ticker}: closes must be finite and positive")

    def __len__(self) -> int:
        return int(self.timestamps.size)


class FillRecord(NamedTuple):
    ticker: str
    timestamp: np.datetime64
    method: str  # "ffill" | "bfill"


@dataclass(frozen=True)
class FilterDecision:
    accepted: bool
    missing_fraction: float
    threshold: float


#: The fill method each code of ``AlignedPanel.fills`` names.
_FILL_METHODS = ("observed", "ffill", "bfill")


@dataclass(frozen=True)
class AlignedPanel:
    """Fully populated price matrix on one shared timestamp grid.

    Rows follow ``assets`` order (ascending ticker); columns follow ``grid``.
    ``fills`` codes each cell 0 = observed, 1 = ffill, 2 = bfill (all 0 if omitted);
    a restrict or slice of a panel without fills allocates none.
    """

    assets: tuple[AssetMeta, ...]
    grid: np.ndarray                 # datetime64[s], strictly increasing
    prices: np.ndarray               # float64 [n_assets, n_timestamps]
    fills: np.ndarray | None = None  # int8 [n_assets, n_timestamps]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype="datetime64[s]")
        prices = np.asarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "assets", tuple(self.assets))
        if len(self.assets) < 2:
            raise DataError("panel needs at least 2 assets")
        if grid.size < 3:
            raise DataError("panel needs at least 3 timestamps")
        if grid.size > 1 and not (np.diff(grid.astype("int64")) > 0).all():
            raise DataError("panel grid not strictly increasing")
        if prices.shape != (len(self.assets), grid.size):
            raise DataError("price matrix shape does not match assets x grid")
        if not np.isfinite(prices).all() or (prices <= 0).any():
            raise DataError("panel prices must be finite and positive")
        fills = self.fills
        if fills is None:  # all observed: a read-only zero view takes no memory
            object.__setattr__(self, "fills", np.broadcast_to(np.int8(0), prices.shape))
        elif (np.asarray(fills).dtype != np.int8 or fills.shape != prices.shape
                or not 0 <= fills.min() <= fills.max() <= 2):
            raise DataError("fills must be int8 codes 0, 1 or 2, one per price")

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(a.ticker for a in self.assets)

    @property
    def fill_log(self) -> tuple[FillRecord, ...]:
        """One record per filled cell, in (row, column) order."""
        return tuple(FillRecord(self.assets[r].ticker, self.grid[c],
                                _FILL_METHODS[self.fills[r, c]])
                     for r, c in zip(*np.nonzero(self.fills)))

    def restrict(self, tickers: Iterable[str]) -> "AlignedPanel":
        """Sub-panel containing only the given tickers (same grid)."""
        wanted = set(tickers)
        idx = [i for i, a in enumerate(self.assets) if a.ticker in wanted]
        missing = wanted - {self.assets[i].ticker for i in idx}
        if missing:
            raise DataError(f"tickers not in panel: {sorted(missing)}")
        return AlignedPanel(
            assets=tuple(self.assets[i] for i in idx),
            grid=self.grid,
            prices=self.prices[idx],
            fills=self.fills[idx] if self.fills.any() else None,
        )


@dataclass(frozen=True)
class SubPeriod:
    """Named calendar interval, inclusive on both ends."""

    name: str
    start: date
    end: date

    def __post_init__(self):
        if not self.name:
            raise ConfigError("sub-period name must be non-empty")
        if self.start > self.end:
            raise ConfigError(f"sub-period {self.name}: start after end")


FULL_PERIOD = "full"


def file_slug(name: str) -> str:
    """A sub-period name as it appears in report file names."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


def _check_report_names(names: Iterable[str], where: str = "") -> None:
    """ConfigError, after ``where``, if two periods (or one and ``full``) collide."""
    seen = {file_slug(FULL_PERIOD): "the full period"}
    for name in names:
        slug = file_slug(name)
        if slug in seen:
            raise ConfigError(f"{where}{seen[slug]} and {name!r} would write the "
                              f"same report files (*_{slug}.csv)")
        seen[slug] = repr(name)


# --- CSV loading ------------------------------------------------------------

def _zone(tz: str | None) -> ZoneInfo | None:
    """The time zone named ``tz``; ConfigError if there is none by that name."""
    if not tz:
        return None
    try:
        return ZoneInfo(tz)
    except (ZoneInfoNotFoundError, ValueError):
        raise ConfigError(f"unknown time zone {tz!r}") from None


def _parse_timestamp(text: str, tz: ZoneInfo | None) -> datetime:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)  # accepts "YYYY-MM-DD HH:MM" too
    if dt.tzinfo is not None:
        if tz is None:
            tz = ZoneInfo(DEFAULT_TIMEZONE)
        dt = dt.astimezone(tz).replace(tzinfo=None)
    return dt


def load_bars(path: Path | str, ticker: str, *,
              tz: str | None = DEFAULT_TIMEZONE) -> RawSeries:
    """Parse one bar CSV into a RawSeries of closes, sorted ascending.

    Accepts 6-column OHLCV or 2-column (timestamp, close) rows; the first
    non-blank line may be a header. Raises MalformedRow, DuplicateTimestamp
    or NonPositivePrice on defective rows.

    Files in the common spellings are parsed in one numpy pass
    (``_parse_fast``); any other file goes through ``_load_bars_rows``,
    which also raises every error, so both give the same result.
    """
    zone = _zone(tz)
    parsed = _parse_fast(Path(path).read_bytes().removeprefix(codecs.BOM_UTF8),
                         zone)
    if parsed is None:
        return _load_bars_rows(path, ticker, tz=tz)
    timestamps, closes = parsed
    return RawSeries(ticker=ticker, timestamps=timestamps, closes=closes)


def _load_bars_rows(path: Path | str, ticker: str, *,
                    tz: str | None = DEFAULT_TIMEZONE) -> RawSeries:
    """Row-by-row parser: ``load_bars``'s fallback and its test oracle."""
    path = Path(path)
    zone = _zone(tz)
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRow(line_no, f"byte 0x{data[exc.start]:02X} is not UTF-8"
                           ) from None
    rows: list[tuple[datetime, float]] = []
    n_cols: int | None = None
    header_allowed = True
    for line_no, record in _csv_records(text):
        if not record or all(not c.strip() for c in record):
            continue
        if header_allowed:
            # only the first non-blank row may be a header
            header_allowed = False
            try:
                _parse_timestamp(record[0], zone)
            except ValueError:
                continue
        if n_cols is None:
            n_cols = len(record)
            if n_cols not in (2, 6):
                raise MalformedRow(line_no, f"expected 2 or 6 columns, got {n_cols}")
        if len(record) != n_cols:
            raise MalformedRow(line_no, f"expected {n_cols} columns, got {len(record)}")
        try:
            ts = _parse_timestamp(record[0], zone)
        except ValueError as exc:
            raise MalformedRow(line_no, str(exc)) from None
        close_field = record[1] if n_cols == 2 else record[4]
        try:
            close = float(close_field)
        except ValueError:
            raise MalformedRow(line_no, f"bad close {close_field!r}") from None
        if not math.isfinite(close):
            raise MalformedRow(line_no, f"non-finite close {close_field!r}")
        if close <= 0:
            raise NonPositivePrice(ts)
        rows.append((ts, close))
    if not rows:
        raise MalformedRow(1, "no data rows")
    rows.sort(key=lambda r: r[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise DuplicateTimestamp(a)
    return RawSeries(
        ticker=ticker,
        timestamps=np.array([r[0] for r in rows], dtype="datetime64[s]"),
        closes=np.array([r[1] for r in rows], dtype=np.float64),
    )


def _csv_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each CSV record; MalformedRow on a CSV error."""
    line_no = 0
    try:
        for line_no, record in enumerate(
                csv.reader(io.StringIO(text, newline="")), start=1):
            yield line_no, record
    except csv.Error as exc:
        raise MalformedRow(line_no + 1, str(exc)) from None


#: Bytes only the row parser handles, besides anything non-ASCII.
_ROW_PARSER_BYTES = (b"\0", b"\r", b'"')
#: Longest close field the fast path gathers; a float64 repr needs 24 bytes.
_MAX_CLOSE_WIDTH = 32
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
#: UTC stamps the fast path converts: 1900-01-01 up to 2999-12-31.
_FIRST_SAFE_SECOND = -2208988800
_LAST_SAFE_SECOND = 32503680000 - 1


def _parse_fast(data: bytes, zone: ZoneInfo | None
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted timestamps and closes of a bar file, or None for the row parser.

    Takes only files it reads exactly as ``_load_bars_rows`` does: ASCII,
    ``\\n`` line ends, no quotes, 2 or 6 columns on every data line, one
    stamp spelling ``YYYY-MM-DD[T ]HH:MM[:SS][Z]`` throughout, finite
    positive closes and no duplicate stamps. Everything else, errors
    included, is left to the row parser.
    """
    if not data or not data.isascii() or any(c in data for c in _ROW_PARSER_BYTES):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    if b[-1] != ord("\n"):
        ends = np.append(ends, b.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    nonempty = ends > starts
    starts, ends = starts[nonempty], ends[nonempty]
    if starts.size == 0 or (ends - starts).max() > csv.field_size_limit():
        return None
    commas = np.flatnonzero(b == ord(","))
    first = np.searchsorted(commas, starts)
    n_commas = np.searchsorted(commas, ends) - first

    head = data[starts[0]:ends[0]].decode("ascii").split(",")
    if all(not c.strip() for c in head):
        return None
    try:
        _parse_timestamp(head[0], zone)
    except ValueError:  # a header line
        starts, ends, first, n_commas = starts[1:], ends[1:], first[1:], n_commas[1:]
        if starts.size == 0:
            return None
    n_cols = int(n_commas[0]) + 1
    if n_cols not in (2, 6) or (n_commas != n_cols - 1).any():
        return None

    width = int(commas[first[0]] - starts[0])
    if width not in (16, 17, 19, 20) or (commas[first] - starts != width).any():
        return None
    secs = _fixed_width_seconds(
        np.lib.stride_tricks.sliding_window_view(b, width)[starts])
    if secs is None:
        return None
    if width in (17, 20):
        secs = _utc_to_local(secs, zone or ZoneInfo(DEFAULT_TIMEZONE))
        if secs is None:
            return None

    if n_cols == 2:
        lo, hi = commas[first] + 1, ends
    else:
        lo, hi = commas[first + 3] + 1, commas[first + 4]
    closes = _gather_floats(b, lo, hi - lo)
    if closes is None or not np.isfinite(closes).all() or (closes <= 0).any():
        return None
    order = np.argsort(secs, kind="stable")
    secs = secs[order]
    if (secs[1:] == secs[:-1]).any():
        return None
    return secs.view("datetime64[s]"), closes[order]


def _fixed_width_seconds(win: np.ndarray) -> np.ndarray | None:
    """Seconds since the epoch of ``YYYY-MM-DD[T ]HH:MM[:SS][Z]`` rows.

    ``win`` holds one stamp per row as bytes. Returns None unless every
    separator, digit and calendar field is valid.
    """
    width = win.shape[1]
    with_seconds = width >= 19
    valid = ((win[:, 4] == ord("-")) & (win[:, 7] == ord("-"))
             & ((win[:, 10] == ord("T")) | (win[:, 10] == ord(" ")))
             & (win[:, 13] == ord(":")))
    if with_seconds:
        valid &= win[:, 16] == ord(":")
    if width in (17, 20):
        valid &= win[:, -1] == ord("Z")
    digits = win - np.uint8(ord("0"))
    cols = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15] + ([17, 18] if with_seconds else [])
    valid &= (digits[:, cols] <= 9).all(axis=1)

    def number(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(win.shape[0], dtype=np.int64)
        for col in range(lo, hi):
            out = out * 10 + digits[:, col]
        return out

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute = number(11, 13), number(14, 16)
    second = number(17, 19) if with_seconds else 0
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_ok = (month >= 1) & (month <= 12)
    days_in_month = _DAYS_IN_MONTH[np.where(month_ok, month - 1, 0)] + (leap & (month == 2))
    valid &= (month_ok & (year >= 1) & (day >= 1) & (day <= days_in_month)
              & (hour <= 23) & (minute <= 59) & (second <= 59))
    if not valid.all():
        return None
    # days from the civil date (H. Hinnant's algorithm), March-based years
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    return days * 86400 + hour * 3600 + minute * 60 + second


def _utc_to_local(secs: np.ndarray, zone: ZoneInfo) -> np.ndarray | None:
    """Wall-clock seconds in ``zone`` for UTC epoch seconds.

    Looks the offset up once per UTC day, and remembers it across files;
    rows on a day whose offset changes are converted one by one. Returns
    None outside the years where every conversion stays inside
    ``datetime``'s range.
    """
    if secs.min() < _FIRST_SAFE_SECOND or secs.max() > _LAST_SAFE_SECOND:
        return None
    days, day_of = np.unique(secs // 86400, return_inverse=True)
    start, end = np.array([_day_offsets(zone, int(d)) for d in days],
                          dtype=np.int64).T
    local = secs + start[day_of]
    for row in np.flatnonzero((start != end)[day_of]):
        local[row] = secs[row] + _utc_offset(zone, int(secs[row]))
    return local


def _utc_offset(zone: ZoneInfo, t: int) -> int:
    """Seconds ``zone`` is ahead of UTC at epoch second ``t``."""
    return int(datetime.fromtimestamp(t, zone).utcoffset().total_seconds())


@lru_cache(maxsize=1 << 15)
def _day_offsets(zone: ZoneInfo, day: int) -> tuple[int, int]:
    """``zone``'s UTC offset at the first and the last second of UTC day ``day``."""
    return _utc_offset(zone, day * 86400), _utc_offset(zone, day * 86400 + 86399)


def _gather_floats(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray
                   ) -> np.ndarray | None:
    """float64 values of the byte fields ``b[starts[i]:starts[i] + lengths[i]]``.

    Fields are gathered through a sliding-window view, so no index matrix is
    built. Returns None if a field is empty, too long or not a number.
    """
    width = int(lengths.max())
    if lengths.min() < 1 or width > _MAX_CLOSE_WIDTH:
        return None
    padded = np.concatenate([b, np.zeros(width, dtype=np.uint8)])
    fields = np.lib.stride_tricks.sliding_window_view(padded, width)[starts]
    fields[np.arange(width) >= lengths[:, None]] = 0
    try:
        return fields.view(f"S{width}").ravel().astype(np.float64)
    except ValueError:
        return None


# --- filtering and alignment -------------------------------------------------

def in_window(series: RawSeries, window: TradingWindow = DEFAULT_TRADING_WINDOW
              ) -> np.ndarray:
    """Boolean mask of observations inside the daily trading window."""
    minutes = ((series.timestamps - series.timestamps.astype("datetime64[D]"))
               .astype("timedelta64[m]").astype(np.int64))
    return (minutes >= window.start_minute) & (minutes < window.end_minute)


def filter_by_missing(series: RawSeries, grid: Sequence | np.ndarray,
                      vehicle: Vehicle, *,
                      thresholds: Mapping[Vehicle, float] | None = None
                      ) -> FilterDecision:
    """Accept/reject an asset by the fraction of grid timestamps it misses.

    The grid is expected sorted and unique, as ``shared_grid`` returns it.
    """
    grid_arr = np.asarray(grid, dtype="datetime64[s]")
    if grid_arr.size == 0:
        raise EmptyGrid("cannot filter against an empty grid")
    limits = DEFAULT_MISSING_THRESHOLDS if thresholds is None else thresholds
    threshold = float(limits[vehicle])
    # series stamps are strictly increasing, so each matches one grid stamp
    pos = np.searchsorted(grid_arr, series.timestamps)
    observed = np.count_nonzero(
        grid_arr.take(pos, mode="clip") == series.timestamps)
    fraction = 1.0 - observed / grid_arr.size
    return FilterDecision(accepted=fraction <= threshold,
                          missing_fraction=float(fraction),
                          threshold=threshold)


def shared_grid(series_list: Sequence[RawSeries],
                window: TradingWindow = DEFAULT_TRADING_WINDOW,
                *, quorum: float = 0.5) -> np.ndarray:
    """Union of in-window timestamps present in at least ``quorum`` of assets."""
    if not series_list:
        raise EmptyGrid("no series")
    masks = [in_window(s, window) for s in series_list]
    stamps = np.empty(sum(int(np.count_nonzero(m)) for m in masks), dtype=np.int64)
    if not stamps.size:
        raise EmptyGrid("no in-window observations in any series")
    filled = 0
    for s, mask in zip(series_list, masks):
        chunk = s.timestamps[mask].view(np.int64)
        stamps[filled:filled + chunk.size] = chunk
        filled += chunk.size
    stamps.sort()
    firsts = np.concatenate(([0], np.flatnonzero(stamps[1:] != stamps[:-1]) + 1))
    counts = np.diff(firsts, append=stamps.size)
    return stamps[firsts[counts >= quorum * len(series_list)]].view("datetime64[s]")


def align(accepted: Sequence[RawSeries], metas: Sequence[AssetMeta],
          window: TradingWindow = DEFAULT_TRADING_WINDOW,
          *, quorum: float = 0.5) -> AlignedPanel:
    """Align accepted series onto one shared in-window grid.

    Gaps are forward-filled from the asset's last prior in-window
    observation; a leading gap is back-filled from its first observation.
    The panel's ``fills`` marks each filled cell 1 (ffill) or 2 (bfill).
    """
    if len(accepted) < 2:
        raise DataError("align needs at least 2 accepted series")
    meta_by_ticker = {m.ticker: m for m in metas}
    missing_meta = [s.ticker for s in accepted if s.ticker not in meta_by_ticker]
    if missing_meta:
        raise ConfigError(f"no metadata for tickers: {sorted(missing_meta)}")

    ordered = sorted(accepted, key=lambda s: s.ticker)
    masks = [in_window(s, window) for s in ordered]
    for s, mask in zip(ordered, masks):
        if not mask.any():
            raise UnfillableAsset(s.ticker)

    grid = shared_grid(ordered, window, quorum=quorum)
    if grid.size == 0:
        raise EmptyGrid("no timestamp reaches the asset quorum")
    if grid.size < 3:
        raise EmptyGrid(f"grid has only {grid.size} timestamps; need at least 3")

    prices = np.empty((len(ordered), grid.size), dtype=np.float64)
    fills = np.empty(prices.shape, dtype=np.int8)
    for row, (s, mask) in enumerate(zip(ordered, masks)):
        ts, px = s.timestamps[mask], s.closes[mask]
        idx = np.searchsorted(ts, grid, side="right") - 1
        clipped = np.clip(idx, 0, ts.size - 1)
        prices[row] = px[clipped]
        fills[row] = np.where(ts[clipped] == grid, 0, np.where(idx < 0, 2, 1))

    return AlignedPanel(
        assets=tuple(meta_by_ticker[s.ticker] for s in ordered),
        grid=grid,
        prices=prices,
        fills=fills,
    )


def slice_panel(panel: AlignedPanel, sub: SubPeriod) -> AlignedPanel:
    """Restrict a panel to [sub.start, sub.end] by calendar date.

    The kept columns are one range of the sorted grid, found by bisection.
    Prices (and fills, if any kept cell is filled) are copied in Fortran
    order, the layout a boolean column mask gives: ``returns.csad`` averages
    over assets along axis 0, and the order in which that mean adds up, so
    the last bits of every report, depends on the layout.
    """
    first = np.datetime64(sub.start, "s")
    after = np.datetime64(sub.end, "s") + np.timedelta64(1, "D")
    lo, hi = panel.grid.searchsorted([first, after])
    kept = int(hi - lo)
    if kept == 0:
        raise EmptySlice(f"{sub.name}: no panel timestamps in range")
    if kept < 3:
        raise EmptySlice(f"{sub.name}: only {kept} timestamps in range")
    fills = panel.fills[:, lo:hi]
    return AlignedPanel(
        assets=panel.assets,
        grid=panel.grid[lo:hi],
        prices=np.array(panel.prices[:, lo:hi], order="F"),
        fills=np.array(fills, order="F") if fills.any() else None,
    )


# --- config files -------------------------------------------------------------

def read_sector_map(path: Path | str) -> dict[str, AssetMeta]:
    """Parse a "TICKER vehicle sector" map, one asset per line."""
    path = Path(path)
    out: dict[str, AssetMeta] = {}
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read sector map {path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ConfigError(f"{path}:{line_no}: expected 'TICKER vehicle sector'")
        ticker = parts[0].upper()
        if ticker in out:
            raise ConfigError(f"{path}:{line_no}: duplicate ticker {ticker}")
        out[ticker] = AssetMeta(ticker, Vehicle.parse(parts[1]), Sector.parse(parts[2]))
    if not out:
        raise ConfigError(f"sector map {path} is empty")
    return out


def read_subperiods(path: Path | str) -> tuple[SubPeriod, ...]:
    """Parse "name,start_date,end_date" lines with ISO dates."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read sub-period file {path}: {exc}") from None
    subs: list[SubPeriod] = []
    for line_no, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{path}:{line_no}: expected 'name,start,end'")
        try:
            start, end = date.fromisoformat(parts[1]), date.fromisoformat(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
        subs.append(SubPeriod(parts[0], start, end))
    _check_report_names((s.name for s in subs), where=f"{path}: ")
    return tuple(subs)
