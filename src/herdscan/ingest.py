"""Intraday bar ingestion and panel alignment.

Input is one CSV per asset, either ``timestamp,open,high,low,close,volume``
or ``timestamp,close``; the first non-blank line is a header if its first
field is no timestamp and none of its fields a number, else it is data. Only
the close column is used. Timestamps are interpreted as exchange-local wall
clock (default zone America/New_York); tz-aware inputs are converted into
that zone and the offset is dropped, so every downstream comparison is on
one clock.

Plain-ASCII files with ``\\n`` line ends, no quotes, and every stamp in
one spelling out of ``YYYY-MM-DD HH:MM`` and ``YYYY-MM-DD HH:MM:SS`` (``T``
or space between date and time), each optionally with a ``Z`` suffix, are
parsed in one numpy pass. Any other file, and any file with an error in
it but a repeated stamp, goes through the row-by-row parser, which reads
every ISO-8601 form ``datetime.fromisoformat`` accepts and reports errors
with their line number; it cuts each stamp to whole seconds. Both end in
``_sorted_unique``, which raises a stamp repeated inside the trading
window and keeps the first bar of one repeated outside it. On the numpy
pass, each stamp must match its spelling's byte template (digits where
digits go, ``T`` or space, the separators) before numpy's ``datetime64``
cast parses it and checks the calendar; year 0, which numpy reads and
``datetime`` does not, is left to the row parser (see
``_fixed_width_seconds``). Closes of up to 19 bytes, digits with at most
one dot, are converted by integer arithmetic to the same double ``float()`` gives (see
``_gather_floats``); other spellings take numpy's string cast.

The alignment step restricts every series to the regular trading window
(09:30 inclusive to 16:00 exclusive), builds a shared grid from
timestamps present in at least half of the assets, and forward-fills the
remaining gaps, marking every filled cell in the panel's ``fills`` array.
It sorts the in-window stamps of all the series into one union once and
finds each series's stamps there with one search (``_StampIndex``); the
grids, the missing-data filter's counts and the fills follow from those
positions.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence
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


def _check_cell_text(what: str, name: str) -> None:
    """ConfigError if ``name`` would break a report cell, which is unquoted."""
    if any(c in name for c in ',;"\r\n'):
        raise ConfigError(f"{what} {name!r} holds one of , ; \" or a line break")


@dataclass(frozen=True)
class AssetMeta:
    """Static asset metadata: ticker, vehicle class and sector label."""

    ticker: str
    vehicle: Vehicle
    sector: Sector

    def __post_init__(self):
        if not self.ticker:
            raise ConfigError("empty ticker")
        _check_cell_text("ticker", self.ticker)
        if (self.vehicle is Vehicle.CRYPTO) != (self.sector is Sector.CRYPTO):
            raise ConfigError(
                f"{self.ticker}: crypto vehicle and Crypto sector must coincide")
        if (self.vehicle is Vehicle.US_ETF) != (self.sector is Sector.US_ETF):
            raise ConfigError(
                f"{self.ticker}: ETF vehicle and UsEtf sector must coincide")


#: Regular US trading hours, as minutes after midnight: [09:30, 16:00).
TRADING_START_MINUTE = 570
TRADING_END_MINUTE = 960

#: Share of assets a timestamp must appear in to join the shared grid.
GRID_QUORUM = 0.5


def _check_stamps(ts: np.ndarray, what: str) -> None:
    """DataError unless every stamp is a time (not NaT) after the one before."""
    if np.isnat(ts).any():
        raise DataError(f"{what}: NaT is not a time")
    if not (ts[1:] > ts[:-1]).all():
        raise DataError(f"{what} not strictly increasing")


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
        _check_stamps(ts, f"{self.ticker}: timestamps")
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
    ``restrict`` and ``slice_panel`` cut them as they cut the prices.
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
        tickers = [a.ticker for a in self.assets]
        if len(set(tickers)) != len(tickers):
            dupes = sorted({t for t in tickers if tickers.count(t) > 1})
            raise DataError(f"duplicate tickers in panel: {dupes}")
        if grid.size < 3:
            raise DataError("panel needs at least 3 timestamps")
        _check_stamps(grid, "panel grid")
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
        rows = _rows(self.assets, tickers)
        return AlignedPanel(
            assets=tuple(self.assets[i] for i in rows),
            grid=self.grid,
            prices=self.prices[rows],
            fills=self.fills[rows],
        )


def _rows(assets: Sequence[AssetMeta], tickers: Iterable[str]) -> list[int]:
    """Rows of the assets whose ticker is in ``tickers``, in panel order;
    DataError if a ticker names no asset."""
    wanted = set(tickers)
    rows = [i for i, a in enumerate(assets) if a.ticker in wanted]
    missing = wanted - {assets[i].ticker for i in rows}
    if missing:
        raise DataError(f"tickers not in panel: {sorted(missing)}")
    return rows


@dataclass(frozen=True)
class SubPeriod:
    """Named calendar interval, inclusive on both ends."""

    name: str
    start: date
    end: date

    def __post_init__(self):
        if not self.name:
            raise ConfigError("sub-period name must be non-empty")
        _check_cell_text("sub-period name", self.name)
        if self.start > self.end:
            raise ConfigError(f"sub-period {self.name}: start after end")


FULL_PERIOD = "full"


def file_slug(name: str) -> str:
    """A sub-period name as it appears in report file names."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


def _check_report_names(names: Iterable[str], where: str = "") -> None:
    """ConfigError, after ``where``, if two periods (or one and ``full``) would
    write the same report files, also where their names differ only in case."""
    seen = {file_slug(FULL_PERIOD).lower(): "the full period"}
    for name in names:
        slug = file_slug(name)
        key = slug.lower()  # one file on a case-insensitive file system
        if key in seen:
            raise ConfigError(f"{where}{seen[key]} and {name!r} would write the "
                              f"same report files (*_{slug}.csv)")
        seen[key] = repr(name)


# --- CSV loading ------------------------------------------------------------

def _zone(tz: str | None) -> ZoneInfo:
    """The time zone named ``tz``, or the default zone if ``tz`` is empty;
    ConfigError if there is none by that name."""
    try:
        return ZoneInfo(tz or DEFAULT_TIMEZONE)
    except (ZoneInfoNotFoundError, ValueError):
        raise ConfigError(f"unknown time zone {tz!r}") from None


def _parse_timestamp(text: str, tz: ZoneInfo) -> datetime:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)  # accepts "YYYY-MM-DD HH:MM" too
    if dt.tzinfo is not None:
        dt = dt.astimezone(tz).replace(tzinfo=None)
    return dt


def _is_header(fields: Sequence[str], zone: ZoneInfo) -> bool:
    """Whether a file's first non-blank line, split into ``fields``, is a
    header: its first field is no timestamp and none of its fields a number.

    Any other first line is data, so a bad stamp there is a MalformedRow,
    not a header that drops the row.
    """
    try:
        _parse_timestamp(fields[0], zone)
        return False
    except ValueError:
        pass
    for f in fields:
        try:
            float(f)
            return False
        except ValueError:
            pass
    return True


def bar_files(data_dir: Path | str) -> dict[str, Path]:
    """Each ``*.csv`` in ``data_dir`` by ticker, its upper-cased stem; DataError
    if there is none or two name one ticker (``aaa.csv`` and ``AAA.csv``)."""
    data_dir = Path(data_dir)
    named: dict[str, Path] = {}
    for p in sorted(data_dir.glob("*.csv")):
        ticker = p.stem.upper()
        first = named.setdefault(ticker, p)
        if first is not p:
            raise DataError(f"{first.name} and {p.name} both name ticker {ticker}")
    if not named:
        raise DataError(f"no CSV files in {data_dir}")
    return named


def load_bars(path: Path | str, ticker: str, *,
              tz: str | None = DEFAULT_TIMEZONE) -> RawSeries:
    """Parse one bar CSV into a RawSeries of closes, sorted ascending.

    Accepts 6-column OHLCV or 2-column (timestamp, close) rows; the first
    non-blank line may be a header (see ``_is_header``). Raises MalformedRow,
    DuplicateTimestamp or NonPositivePrice on defective rows; a stamp
    repeated outside the trading window keeps its first bar (see
    ``_sorted_unique``).

    The file is read once. Files in the common spellings are parsed in one
    numpy pass (``_parse_fast``); any other file, and any error but a
    repeated stamp, goes to ``_parse_rows``. Both give the same result.
    """
    zone = _zone(tz)
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    parsed = _parse_fast(data, zone)
    timestamps, closes = _parse_rows(data, zone) if parsed is None else parsed
    return RawSeries(ticker=ticker, timestamps=timestamps, closes=closes)


def _parse_rows(data: bytes, zone: ZoneInfo) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parser: ``load_bars``'s fallback and ``_parse_fast``'s oracle."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(data.count(b"\n", 0, exc.start) + 1,
                           f"byte 0x{data[exc.start]:02X} is not UTF-8") from None
    stamps: list[datetime] = []
    closes: list[float] = []
    n_cols: int | None = None
    header_allowed = True
    line_no = 0
    try:
        for line_no, row in enumerate(
                csv.reader(io.StringIO(text, newline="")), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if header_allowed:
                # only the first non-blank row may be a header
                header_allowed = False
                if _is_header(row, zone):
                    continue
            n_cols = n_cols or len(row)
            if n_cols not in (2, 6):
                raise MalformedRow(line_no, f"expected 2 or 6 columns, got {n_cols}")
            if len(row) != n_cols:
                raise MalformedRow(line_no,
                                   f"expected {n_cols} columns, got {len(row)}")
            try:
                ts = _parse_timestamp(row[0], zone)
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from None
            close_field = row[1] if n_cols == 2 else row[4]
            try:
                close = float(close_field)
            except ValueError:
                raise MalformedRow(line_no, f"bad close {close_field!r}") from None
            if not math.isfinite(close):
                raise MalformedRow(line_no, f"non-finite close {close_field!r}")
            if close <= 0:
                raise NonPositivePrice(ts)
            stamps.append(ts)
            closes.append(close)
    except csv.Error as exc:  # raised reading the record after ``line_no``
        raise MalformedRow(line_no + 1, str(exc)) from None
    if not stamps:
        raise MalformedRow(1, "no data rows")
    # cut to whole seconds first, so two bars in one second are a repeat
    return _sorted_unique(
        np.array(stamps, dtype="datetime64[us]").astype("datetime64[s]"),
        np.array(closes, dtype=np.float64))


def _sorted_unique(stamps: np.ndarray, closes: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``datetime64[s]`` ``stamps`` and ``closes``, in stamp order, each stamp
    once; DuplicateTimestamp at the earliest stamp repeated inside the
    trading window.

    A stamp repeated outside the window keeps its first bar in file order
    and drops the rest: such bars never reach the grid. This is where the
    hour that repeats when daylight saving time ends falls, so UTC bars
    through it (05:30Z and 06:30Z on 2019-11-03 are both 01:30 in New York)
    do not stop a run.
    """
    order = np.argsort(stamps, kind="stable")
    stamps, closes = stamps[order], closes[order]
    repeats = np.flatnonzero(stamps[1:] == stamps[:-1]) + 1
    if repeats.size:
        inside = repeats[_window_mask(stamps[repeats])]
        if inside.size:
            raise DuplicateTimestamp(stamps[inside[0]].item())
        stamps, closes = np.delete(stamps, repeats), np.delete(closes, repeats)
    return stamps, closes


#: Bytes only the row parser handles, besides anything non-ASCII.
_ROW_PARSER_BYTES = (b"\0", b"\r", b'"')
#: Longest close field the fast path gathers; a float64 repr needs 24 bytes.
_MAX_CLOSE_WIDTH = 32
#: The stamp spellings the fast path reads, one byte template per width:
#: ``0`` stands for a digit, ``T`` for ``T`` or a space.
_STAMP_TEMPLATES = {len(t): np.frombuffer(t.encode("ascii"), np.uint8) for t in (
    "0000-00-00T00:00", "0000-00-00T00:00Z",
    "0000-00-00T00:00:00", "0000-00-00T00:00:00Z")}
#: UTC stamps the fast path converts: 1900-01-01 up to 2999-12-31.
_FIRST_SAFE_SECOND = -2208988800
_LAST_SAFE_SECOND = 32503680000 - 1


def _parse_fast(data: bytes, zone: ZoneInfo) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted timestamps and closes of a bar file, or None for the row parser.

    Takes only files it reads exactly as ``_parse_rows`` does: ASCII,
    ``\\n`` line ends, no quotes, 2 or 6 columns on every data line, one
    stamp spelling ``YYYY-MM-DD[T ]HH:MM[:SS][Z]`` throughout, and finite
    positive closes. A stamp repeated inside the trading window, the one
    error left then, raises the row parser's DuplicateTimestamp; all else is
    left to the row parser.
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

    head = data[starts[0]:ends[0]].decode("ascii").split(",")
    if all(not c.strip() for c in head):
        return None
    if _is_header(head, zone):
        starts, ends = starts[1:], ends[1:]
        if starts.size == 0:
            return None
        commas = commas[np.searchsorted(commas, starts[0]):]
    # Every comma now lies on a data line. Sorted, they split into one row
    # per line exactly when there are n_cols - 1 per line and each row's
    # first and last fall inside its own line.
    n_cols = data.count(b",", starts[0], ends[0]) + 1
    if n_cols not in (2, 6) or commas.size != (n_cols - 1) * starts.size:
        return None
    commas = commas.reshape(starts.size, n_cols - 1)
    if (commas[:, 0] < starts).any() or (commas[:, -1] >= ends).any():
        return None

    width = int(commas[0, 0] - starts[0])
    if width not in (16, 17, 19, 20) or (commas[:, 0] - starts != width).any():
        return None
    secs = _fixed_width_seconds(
        np.lib.stride_tricks.sliding_window_view(b, width)[starts])
    if secs is None:
        return None
    if width in (17, 20):
        secs = _utc_to_local(secs, zone)
        if secs is None:
            return None

    if n_cols == 2:
        lo, hi = commas[:, 0] + 1, ends
    else:
        lo, hi = commas[:, 3] + 1, commas[:, 4]
    closes = _gather_floats(b, lo, hi - lo)
    if closes is None or not np.isfinite(closes).all() or (closes <= 0).any():
        return None
    return _sorted_unique(secs.view("datetime64[s]"), closes)


def _fixed_width_seconds(win: np.ndarray) -> np.ndarray | None:
    """Seconds since the epoch of ``YYYY-MM-DD[T ]HH:MM[:SS][Z]`` rows.

    ``win`` holds one stamp per row as bytes. Three checks, each of which
    returns None if a row fails it: every row must fit the
    ``_STAMP_TEMPLATES`` entry of its width byte for byte, which keeps out
    the signs, spaces and suffixes numpy would also read; numpy's
    ``datetime64`` cast must parse it, which checks the calendar fields; and
    its year must not be 0, which numpy reads but ``datetime`` does not.
    """
    template = _STAMP_TEMPLATES[win.shape[1]]
    digit, any_byte = template == ord("0"), template == ord("T")
    # each byte lies in [low, low + span] (bytes below ``low`` wrap past any
    # span): a digit, the template's own byte, or anything at the separator,
    # which is checked on its own
    low = np.where(any_byte, 0, template).astype(np.uint8)
    span = np.select([digit, any_byte], [9, 255]).astype(np.uint8)
    separator = win[:, 10]
    if ((win - low > span).any()
            or not ((separator == ord("T")) | (separator == ord(" "))).all()):
        return None
    width = 19 if win.shape[1] >= 19 else 16  # without the "Z", which numpy warns about
    text = win[:, :width].view(f"S{width}")[:, 0]
    try:
        stamps = text.astype("datetime64[s]")
    except ValueError:
        return None
    if (stamps < np.datetime64("0001-01-01")).any():  # year 0
        return None
    return stamps.view(np.int64)


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
    """float64 values of the byte fields ``b[starts[i]:starts[i] + lengths[i]]``,
    or None if a field is empty, longer than ``_MAX_CLOSE_WIDTH`` or not a
    number.

    Fields of up to 19 bytes, digits with at most one dot, are converted
    by integer arithmetic (``_digit_floats``) to the double nearest their
    value, which is what ``float()`` and numpy's string cast return: one
    correctly rounded division in double precision for mantissas below
    2**53 (Clinger's fast path), and one in x87 extended precision, guarded
    against double rounding, above. Every other field goes through the cast
    (``_cast_floats``): exponents, signs, spaces, underscores, fields over
    19 bytes, fields ending in the first 24 bytes of ``b``, quotients the
    guard refuses, and mantissas of 2**53 and above wherever
    ``np.longdouble`` is not x87 extended precision (``_EXTENDED``; it is
    not on Windows, Arm or 32-bit x86, for example). So values, and when
    None is returned, do not depend on the route a field takes.
    """
    if lengths.min() < 1 or lengths.max() > _MAX_CLOSE_WIDTH:
        return None
    values, exact = _digit_floats(b, starts + lengths, lengths)
    rest = np.flatnonzero(~exact)
    if rest.size:
        cast = _cast_floats(b, starts[rest], lengths[rest])
        if cast is None:
            return None
        values[rest] = cast
    return values


#: Every byte of a uint64 word set to one.
_BYTES = np.uint64(0x0101010101010101)
_HIGH_BITS = _BYTES * np.uint64(0x80)
_LOW_BITS = _BYTES * np.uint64(0x7F)
_ZERO_CHARS = _BYTES * np.uint64(ord("0"))
#: A ``.`` after the XOR with ``'0'``.
_DOT = np.uint64(ord(".") ^ ord("0"))
#: Bytes the digit scan reads per close, as three little-endian words.
_WINDOW = 24
#: Longest field the digit scan converts: 19 digits, or 18 and a dot, so
#: the digits make an integer below 10**19 < 2**64.
_DIGIT_WIDTH = 19


def _pad_masks(length: int) -> list[int]:
    """Per window word, the bytes of a ``length``-byte field ending the window."""
    pads = [min(max(_WINDOW - length - 8 * w, 0), 8) for w in range(_WINDOW // 8)]
    return [((1 << 64) - 1) >> (8 * p) << (8 * p) for p in pads]


#: ``_FIELD_BYTES[:, min(length, 24)]``: the masks of ``_pad_masks(length)``.
_FIELD_BYTES = np.array([_pad_masks(n) for n in range(_WINDOW + 1)], dtype=np.uint64).T
#: Per window word: a word with one bit at byte q, times this constant,
#: holds in its top byte the number of window bytes after byte q, plus one.
_DOT_CODES = np.array([[sum((_WINDOW - 7 - 8 * w + j) << 8 * j for j in range(8))]
                       for w in range(_WINDOW // 8)], dtype=np.uint64)
#: Indexed by dot code (fraction digits k + 1, 0 for none), from Python
#: ints: 10**k, and the divisor 10**(k + 1) that splits off the integer
#: part (10**19 without a dot, which leaves no integer part to split off).
_CODES = range(_DIGIT_WIDTH + 1)
_SCALE_INT = np.array([10**(c - 1) if c else 1 for c in _CODES], dtype=np.uint64)
_INT_DIVISOR = np.array([10**c if c else 10**_DIGIT_WIDTH for c in _CODES],
                        dtype=np.uint64)
_INT_MULTIPLE = _SCALE_INT * np.uint64(9)
_SCALE = _SCALE_INT.astype(np.float64)  # exact: 10**k = 5**k * 2**k, 5**18 < 2**53


def _has_extended_division() -> bool:
    """Whether ``np.longdouble`` is x87 extended precision, stored as the
    64-bit significand (explicit leading bit) in the first 8 of 16 bytes."""
    one = np.longdouble(1)
    return (np.finfo(np.longdouble).nmant == 63 and one.itemsize == 16
            and one.tobytes()[:8] == (1 << 63).to_bytes(8, "little"))


#: Whether mantissas of 2**53 and above take one extended-precision division.
_EXTENDED = _has_extended_division()
_SCALE_EXTENDED = _SCALE_INT.astype(np.longdouble)


def _digit_floats(b: np.ndarray, ends: np.ndarray, lengths: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Values of the fields ``b[ends[i] - lengths[i]:ends[i]]``, and which
    of them are exact.

    A field is converted when it is 1 to 19 bytes, all digits but at most
    one ``.``, is not the bare ``.``, and ends at byte 24 of ``b`` or
    later, so that its window lies in ``b``. Its 24-byte window ending at
    the field's last byte is read as three little-endian ``uint64`` words;
    the bytes before the field become ``'0'``, the dot becomes a ``'0'``
    too, and the SWAR (eight bytes per word) multiply-shift step turns each
    word into its 8-digit value. That
    gives the integer ``n = i * 10**(k + 1) + f`` for integer part ``i``
    and ``k`` fraction digits ``f``, and ``m = n - 9 * 10**k * i`` is the
    decimal mantissa.

    - ``m < 2**53``: ``float64(m) / 10.0**k`` is correctly rounded, since
      both operands are exact doubles (k <= 18 <= 22) and IEEE division
      rounds once (Clinger 1990).
    - ``m >= 2**53``, where ``_EXTENDED``: ``m`` and ``10**k`` are exact in
      the 64-bit significand and one division rounds once, to 64 bits;
      rounding that to 53 bits can differ from one correct rounding only
      when the quotient lies on a midpoint between doubles. The quotient is
      used unless its 11 bits below the double's last bit read ``0x3FF``,
      ``0x400`` or ``0x401``, a margin of one unit around the midpoint.

    Every other field is marked inexact; its value is left undefined.
    Each operand of the integer steps is a ``uint64``, so no step promotes
    to float64 under numpy 1.x or NEP 50 rules.
    """
    n_fields = ends.size
    if b.size < _WINDOW:
        return np.empty(n_fields), np.zeros(n_fields, dtype=bool)
    u64 = np.uint64
    windows = np.ndarray((b.size - _WINDOW + 1,), dtype=f"V{_WINDOW}", buffer=b,
                         strides=(1,))
    words = windows[np.maximum(ends - _WINDOW, 0)].view("<u8").reshape(n_fields, 3)
    # one row per word; digits become 0-9 and the bytes before the field 0
    d = np.bitwise_xor(words.T, _ZERO_CHARS, order="C")
    d &= np.take(_FIELD_BYTES, np.minimum(lengths, _WINDOW), axis=1)
    # the high bit of each byte above 9, non-ASCII bytes included, and of
    # each byte that is a dot (an exact zero-byte test, carry-free)
    not_digit = ((d + _BYTES * u64(0x80 - 10)) | d) & _HIGH_BITS
    x = d ^ _BYTES * _DOT
    dots = ~(((x & _LOW_BITS) + _LOW_BITS) | x) & _HIGH_BITS
    dot_bit = dots >> u64(7)
    n_dots = ((dot_bit[0] + dot_bit[1] + dot_bit[2]) * _BYTES) >> u64(56)
    per_word = dot_bit * _DOT_CODES
    code = ((per_word[0] + per_word[1] + per_word[2]) >> u64(56)).astype(np.intp)
    stray = not_digit ^ dots
    exact = (((stray[0] | stray[1] | stray[2]) == u64(0))
             & (n_dots <= u64(1)) & (lengths <= _DIGIT_WIDTH) & (ends >= _WINDOW)
             & ((lengths > 1) | (n_dots == u64(0))))
    code[~exact] = 0

    d -= dot_bit * _DOT  # the dot becomes a 0 digit
    d = ((d * u64(10 << 8 | 1)) >> u64(8)) & u64(0x00FF00FF00FF00FF)
    d = ((d * u64(100 << 16 | 1)) >> u64(16)) & u64(0x0000FFFF0000FFFF)
    d = (d * u64(10000 << 32 | 1)) >> u64(32)
    n = d[0] * u64(10**16) + d[1] * u64(10**8) + d[2]
    m = n - _INT_MULTIPLE.take(code) * (n // _INT_DIVISOR.take(code))

    values = m.astype(np.float64) / _SCALE.take(code)
    wide = np.flatnonzero(exact & (m >= u64(1 << 53)))
    if wide.size and _EXTENDED:
        q = m[wide].astype(np.longdouble) / _SCALE_EXTENDED.take(code[wide])
        low = q.view("<u8")[::2] & u64(0x7FF)
        safe = (low < u64(0x3FF)) | (low > u64(0x401))
        values[wide[safe]] = q[safe].astype(np.float64)
        wide = wide[~safe]
    exact[wide] = False
    return values, exact


def _cast_floats(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray
                 ) -> np.ndarray | None:
    """numpy's string cast of the fields, gathered through a sliding-window
    view (no index matrix); None if one is not a number."""
    width = int(lengths.max())
    padded = np.concatenate([b, np.zeros(width, dtype=np.uint8)])
    fields = np.lib.stride_tricks.sliding_window_view(padded, width)[starts]
    fields[np.arange(width) >= lengths[:, None]] = 0
    try:
        return fields.view(f"S{width}").ravel().astype(np.float64)
    except ValueError:
        return None


# --- filtering and alignment -------------------------------------------------

def _window_mask(stamps: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``datetime64[s]`` stamps inside the trading window.

    Floor division takes the second of the day; it rounds down, as numpy's
    cast to days does, so stamps before 1970 get their own day's second too.
    """
    since_open = stamps.view(np.int64) - 60 * TRADING_START_MINUTE
    return (since_open - since_open // 86400 * 86400
            < 60 * (TRADING_END_MINUTE - TRADING_START_MINUTE))


def _decision(observed: int, size: int, vehicle: Vehicle) -> FilterDecision:
    """The missing-data decision on an asset that has ``observed`` of the
    ``size`` grid stamps; the limit is the vehicle's entry in
    ``DEFAULT_MISSING_THRESHOLDS``."""
    threshold = DEFAULT_MISSING_THRESHOLDS[vehicle]
    fraction = float(1.0 - observed / size)
    return FilterDecision(accepted=fraction <= threshold,
                          missing_fraction=fraction, threshold=threshold)


def filter_by_missing(series: RawSeries, grid: Sequence | np.ndarray,
                      vehicle: Vehicle) -> FilterDecision:
    """Accept/reject an asset by the fraction of grid timestamps it misses.

    The limit is the vehicle's entry in ``DEFAULT_MISSING_THRESHOLDS``. The
    grid must be strictly increasing, as ``shared_grid`` returns it; any
    other grid is a DataError.
    """
    grid_arr = np.asarray(grid, dtype="datetime64[s]")
    if grid_arr.size == 0:
        raise EmptyGrid("cannot filter against an empty grid")
    _check_stamps(grid_arr, "grid")
    # series stamps are strictly increasing, so each matches one grid stamp
    pos = np.searchsorted(grid_arr, series.timestamps)
    observed = np.count_nonzero(
        grid_arr.take(pos, mode="clip") == series.timestamps)
    return _decision(observed, grid_arr.size, vehicle)


def _in_window(series: RawSeries) -> tuple[np.ndarray, np.ndarray]:
    """A series's in-window bars: its stamps as int64 seconds, and its
    closes; views of the series when every bar is in the window."""
    stamps = series.timestamps.view(np.int64)
    mask = _window_mask(series.timestamps)
    if mask.all():
        return stamps, series.closes
    return stamps[mask], series.closes[mask]


def _union(stamps: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every value of the int64 stamp arrays once, ascending, and how many of
    the arrays hold it (each holds a stamp at most once)."""
    every = np.concatenate(stamps)
    if not every.size:
        raise EmptyGrid("no in-window observations in any series")
    every.sort()
    firsts = np.concatenate(([0], np.flatnonzero(every[1:] != every[:-1]) + 1))
    return every[firsts], np.diff(firsts, append=every.size)


def _on_grid(counts: np.ndarray, n_series: int) -> np.ndarray:
    """Which stamps join the grid of ``n_series`` series, by how many hold them."""
    return counts >= GRID_QUORUM * n_series


def shared_grid(series_list: Sequence[RawSeries]) -> np.ndarray:
    """Union of in-window timestamps present in at least ``GRID_QUORUM`` of assets."""
    if not series_list:
        raise EmptyGrid("no series")
    uniq, counts = _union([_in_window(s)[0] for s in series_list])
    return uniq[_on_grid(counts, len(series_list))].view("datetime64[s]")


class _StampIndex:
    """The in-window bars of several series, their stamps sorted into one
    union once.

    ``uniq`` holds every stamp that some series has inside the trading
    window, once and ascending, and ``counts`` how many series have it.
    ``locate(i)`` says where series i's in-window stamps sit in ``uniq``.
    Every one of them is there, so one search per series finds each
    exactly. A grid, the stamps a series has on it and each row's forward
    fill all follow from these positions, without another sort or search.
    """

    def __init__(self, bars: Sequence[tuple[np.ndarray, np.ndarray]]):
        self.bars = bars
        self.uniq, self.counts = _union([ts for ts, _ in bars])

    def locate(self, i: int) -> np.ndarray:
        """The positions of series i's in-window stamps in ``uniq``."""
        return self.uniq.searchsorted(self.bars[i][0])

    def panel(self, rows: Sequence[int], counts: np.ndarray,
              metas: Sequence[AssetMeta], positions: Callable[[int], np.ndarray],
              run: Callable = map) -> AlignedPanel:
        """The panel of the series at indices ``rows``, in that order, with
        ``metas`` as their assets, on the grid of the ``uniq`` stamps whose
        ``counts`` reach the quorum of ``len(rows)`` series. ``positions(i)``
        returns ``locate(i)``, held from an earlier step or searched then;
        ``run`` maps the row fills over the rows, as ``map`` does.

        A cell takes the close of the series's last in-window bar at or
        before its stamp (ffill where that bar is off the cell's stamp), or
        the series's first in-window bar where there is none (bfill).
        """
        on_grid = _on_grid(counts, len(rows))
        size = np.count_nonzero(on_grid)
        if size == 0:
            raise EmptyGrid("no timestamp reaches the asset quorum")
        if size < 3:
            raise EmptyGrid(f"grid has only {size} timestamps; need at least 3")
        # The panel's arrays come before the small ones the fills keep, so
        # that they can take the memory the union's sort gave back: after
        # them, that hole in the heap stays short of the panel's size and
        # peak memory grows by a panel (measured on 60 x 26 000 bars).
        prices = np.empty((len(rows), size), dtype=np.float64)
        fills = np.empty(prices.shape, dtype=np.int8)
        grid = self.uniq[on_grid]
        # the grid stamps ahead of each uniq stamp: a bar at uniq[p] is at or
        # before grid column g exactly when before[p] <= g
        before = np.cumsum(on_grid) - on_grid

        def fill(row: int, i: int) -> None:
            stamps, closes = self.bars[i]
            # the last bar at or before each grid stamp; -1 where none is
            idx = np.cumsum(np.bincount(before[positions(i)],
                                        minlength=grid.size + 1)[:grid.size]) - 1
            clipped = np.clip(idx, 0, stamps.size - 1)
            np.take(closes, clipped, out=prices[row])
            fills[row] = np.where(stamps[clipped] == grid, 0, np.where(idx < 0, 2, 1))

        for _ in run(fill, range(len(rows)), rows):
            pass
        return AlignedPanel(assets=metas, grid=grid.view("datetime64[s]"),
                            prices=prices, fills=fills)


def align(accepted: Sequence[RawSeries], metas: Sequence[AssetMeta]) -> AlignedPanel:
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
    bars = [_in_window(s) for s in ordered]
    for s, (stamps, _) in zip(ordered, bars):
        if not stamps.size:
            raise UnfillableAsset(s.ticker)
    index = _StampIndex(bars)
    # each row's fill searches its series, so no positions are held
    return index.panel(range(len(ordered)), index.counts,
                       [meta_by_ticker[s.ticker] for s in ordered], index.locate)


def _filter_and_align(series: Sequence[RawSeries],
                      sector_map: Mapping[str, AssetMeta], run: Callable = map
                      ) -> tuple[AlignedPanel, dict[str, FilterDecision]]:
    """The panel of the series that pass the missing-data filter, and the
    filter's decision on every series; ``run`` maps the searches and the
    row fills over the series, as ``map`` does.

    The same as ``shared_grid`` over all the series, ``filter_by_missing``
    of each against that provisional grid, then ``align`` of the accepted
    ones, which rebuilds the grid from them: with one sort of the stamps
    and one search per series in place of two of each.
    """
    index = _StampIndex([_in_window(s) for s in series])
    # int32 positions, where they fit, halve what the filter holds
    dtype = np.int32 if index.uniq.size <= np.iinfo(np.int32).max else np.intp
    pos = list(run(lambda i: index.locate(i).astype(dtype), range(len(series))))
    provisional = _on_grid(index.counts, len(series))
    size = np.count_nonzero(provisional)
    if size == 0:
        raise EmptyGrid("cannot filter against an empty grid")
    decisions = {s.ticker: _decision(np.count_nonzero(provisional[p]), size,
                                     sector_map[s.ticker].vehicle)
                 for s, p in zip(series, pos)}
    kept = [decisions[s.ticker].accepted for s in series]
    if sum(kept) < 2:
        raise DataError("fewer than 2 assets pass the missing-data filter")
    rows = sorted((i for i, k in enumerate(kept) if k), key=lambda i: series[i].ticker)
    # the final grid counts the accepted series alone
    counts = index.counts - sum(np.bincount(p, minlength=index.uniq.size)
                                for p, k in zip(pos, kept) if not k)
    panel = index.panel(rows, counts, [sector_map[series[i].ticker] for i in rows],
                        pos.__getitem__, run)
    return panel, decisions


def slice_panel(panel: AlignedPanel, sub: SubPeriod) -> AlignedPanel:
    """Restrict a panel to [sub.start, sub.end] by calendar date.

    The kept columns are one range of the sorted grid, found by bisection.
    Prices are copied in Fortran order, the layout a boolean column mask
    gives: the last bits of ``returns.csad``'s mean over assets and of the
    ``np.corrcoef`` in ``graph.pearson_matrix`` depend on the layout. No sum
    reads the fill codes, so they need no particular layout: they are a view.
    """
    first = np.datetime64(sub.start, "s")
    after = np.datetime64(sub.end, "s") + np.timedelta64(1, "D")
    lo, hi = panel.grid.searchsorted([first, after])
    kept = int(hi - lo)
    if kept == 0:
        raise EmptySlice(f"{sub.name}: no panel timestamps in range")
    if kept < 3:
        raise EmptySlice(f"{sub.name}: only {kept} timestamps in range")
    return AlignedPanel(
        assets=panel.assets,
        grid=panel.grid[lo:hi],
        prices=np.array(panel.prices[:, lo:hi], order="F"),
        fills=panel.fills[:, lo:hi],
    )


# --- config files -------------------------------------------------------------

def _config_lines(path: Path, what: str) -> Iterator[tuple[str, str]]:
    """(``path:line``, body) of each line of a config file that is not blank
    once its ``#`` comment is cut. The file is UTF-8 whatever the locale; an
    unreadable file or a byte that is not UTF-8 is a ConfigError. A leading
    byte-order mark is skipped."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the line that holds the bad byte: lines before it, plus its own
        # (exc.object is the data after the byte-order mark, if there is one)
        line_no = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"{path}:{line_no}: not UTF-8 ({exc.reason})") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield f"{path}:{line_no}", body


def read_sector_map(path: Path | str) -> dict[str, AssetMeta]:
    """Parse a "TICKER vehicle sector" map, one asset per line."""
    path = Path(path)
    out: dict[str, AssetMeta] = {}
    for where, body in _config_lines(path, "sector map"):
        parts = body.split()
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected 'TICKER vehicle sector'")
        ticker = parts[0].upper()
        if ticker in out:
            raise ConfigError(f"{where}: duplicate ticker {ticker}")
        try:
            out[ticker] = AssetMeta(ticker, Vehicle.parse(parts[1]),
                                    Sector.parse(parts[2]))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if not out:
        raise ConfigError(f"sector map {path} is empty")
    return out


def read_subperiods(path: Path | str) -> tuple[SubPeriod, ...]:
    """Parse "name,start_date,end_date" lines with ISO dates."""
    path = Path(path)
    subs: list[SubPeriod] = []
    for where, body in _config_lines(path, "sub-period file"):
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected 'name,start,end'")
        try:
            subs.append(SubPeriod(parts[0], date.fromisoformat(parts[1]),
                                  date.fromisoformat(parts[2])))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    _check_report_names((s.name for s in subs), where=f"{path}: ")
    return tuple(subs)
