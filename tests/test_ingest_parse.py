"""Differential tests of the one-pass bar parser against the row parser.

``load_bars`` reads a file once, parses the common spellings in one numpy
pass (``_parse_fast``) and hands everything else to ``_parse_rows``.
Whatever the file holds, both must return the same series or raise the same
error at the same line.
"""

from __future__ import annotations

import calendar
import codecs
import csv
from datetime import datetime, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herdscan.errors import DuplicateTimestamp, MalformedRow
from herdscan.ingest import (
    DEFAULT_TIMEZONE,
    RawSeries,
    _day_offsets,
    _fixed_width_seconds,
    _parse_fast,
    _parse_rows,
    _zone,
    load_bars,
)

NEW_YORK = ZoneInfo("America/New_York")
#: An ordinary day and the two New York DST switches of 2019 (UTC dates).
DAYS = (datetime(2019, 4, 1), datetime(2019, 3, 10), datetime(2019, 11, 3))

SPELLINGS = {
    "minute": lambda t: f"{t:%Y-%m-%d %H:%M}",
    "seconds": lambda t: f"{t:%Y-%m-%dT%H:%M:%S}",
    "utc": lambda t: f"{t:%Y-%m-%dT%H:%M:%S}Z",
    "utc_minute": lambda t: f"{t:%Y-%m-%d %H:%M}Z",
    "utc_lower": lambda t: f"{t:%Y-%m-%dT%H:%M:%S}z",
    "offset": lambda t: f"{t:%Y-%m-%dT%H:%M:%S}+00:00",
    "fraction": lambda t: f"{t:%Y-%m-%dT%H:%M:%S}.250",
}
#: The spellings ``load_bars`` parses without the row parser.
FAST_SPELLINGS = ("minute", "seconds", "utc", "utc_minute")
BAD_CLOSES = ("0", "-1", "nan", "inf", "1_000", " 2.5", "1e999", "abc", "",
              "2.5\x00")
JUNK_LINES = ("", "   ", ",,,,,", ",", "bad-row,1.0", "2019-13-45 09:30,2.0")
HEADERS = {2: "timestamp,close", 6: "timestamp,open,high,low,close,volume"}


def rare(p_in_ten: int = 1):
    """True in ``p_in_ten`` of ten draws."""
    return st.integers(0, 9).map(lambda x: x < p_in_ten)


@st.composite
def fixed_closes(draw):
    """A positive price with 0-8 decimals, as exchanges print them."""
    places = draw(st.integers(0, 8))
    whole, frac = divmod(draw(st.integers(1, 10**10)), 10**places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


@st.composite
def long_closes(draw):
    """A 17-19 digit mantissa with the dot anywhere among its digits, or none."""
    digits = str(draw(st.integers(10**16, 10**19 - 1)))
    at = draw(st.integers(0, len(digits)))
    return digits if at == len(digits) else digits[:at] + "." + digits[at:]


CLOSES = st.one_of(st.floats(min_value=1e-3, max_value=1e6).map(repr),
                   fixed_closes(), long_closes())


@st.composite
def instants(draw):
    day = draw(st.sampled_from(DAYS))
    return day + timedelta(hours=draw(st.integers(0, 23)),
                           minutes=draw(st.sampled_from([0, 30])))


@st.composite
def bar_files(draw):
    """A bar file as bytes: clean in most draws, defective in the rest."""
    n_cols = draw(st.sampled_from([2, 6]))
    spelling = draw(st.sampled_from(FAST_SPELLINGS if draw(rare(6))
                                    else sorted(SPELLINGS)))
    defective = draw(rare(3))
    stamps = draw(st.lists(instants(), min_size=1, max_size=12, unique=True))
    if defective and draw(rare(3)):
        stamps.append(draw(st.sampled_from(stamps)))
    stamps = draw(st.permutations(stamps))
    lines = []
    for stamp in stamps:
        odd = defective and draw(rare(3))
        row_spelling = draw(st.sampled_from(sorted(SPELLINGS))) if odd else spelling
        close = draw(CLOSES)
        if odd and draw(st.booleans()):
            close = draw(st.sampled_from(BAD_CLOSES))
        fields = [SPELLINGS[row_spelling](stamp)] + (
            [close] if n_cols == 2 else ["1.0", "2.0", "0.5", close, "100"])
        if odd and draw(rare(3)):
            quoted = draw(st.sampled_from([0, -1, 1]))
            fields[quoted] = f'"{fields[quoted]}"'
        if odd and draw(rare(2)):  # one column short or one too many
            fields = fields[:-1] if draw(st.booleans()) else fields + ["7"]
        lines.append(",".join(fields))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(JUNK_LINES)))
    if draw(st.booleans()):
        lines.insert(draw(st.sampled_from([0, 0, 0, 0, 0, 1])), HEADERS[n_cols])
    end = draw(st.sampled_from(["\r\n", "\r"])) if draw(rare()) else "\n"
    text = end.join(lines) + (end if draw(rare(8)) else "")
    return text.encode("ascii")


def _load_bars_rows(path, ticker, *, tz=DEFAULT_TIMEZONE):
    """``load_bars`` with the row parser alone."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    return RawSeries(ticker, *_parse_rows(data, _zone(tz)))


def outcome(parse, path, tz):
    try:
        s = parse(path, "X", tz=tz)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return s.timestamps.astype(np.int64).tolist(), s.closes.tolist()


def parsed(parse, data, zone=NEW_YORK):
    """``outcome`` of ``_parse_fast`` or ``_parse_rows`` on a file's bytes;
    None if the parser leaves the file to another."""
    try:
        result = parse(data, zone)
    except Exception as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    if result is None:
        return None
    stamps, closes = result
    assert stamps.dtype == np.dtype("datetime64[s]") and closes.dtype == np.float64
    return stamps.astype(np.int64).tolist(), closes.tolist()


@pytest.fixture(scope="module")
def bar_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "X.csv"


@given(data=bar_files(), tz=st.sampled_from(["America/New_York", None]))
# two stamps a fraction of a second apart fall in one second: a repeat
@example(data=b"2019-04-01 00:00,1.0\r\n2019-04-01T00:00:00.250,1.0\r\n",
         tz="America/New_York")
@settings(max_examples=400, deadline=None)
def test_load_bars_matches_row_parser(bar_path, data, tz):
    zone = _zone(tz)
    assert parsed(_parse_fast, data, zone) in (None, parsed(_parse_rows, data, zone))
    bar_path.write_bytes(data)
    assert outcome(load_bars, bar_path, tz) == outcome(_load_bars_rows, bar_path, tz)


def utc_stamps() -> list[datetime]:
    """Market-hour UTC stamps around both 2019 New York DST switches, plus
    overnight stamps on the switch days themselves."""
    out = []
    for first in (datetime(2019, 3, 7), datetime(2019, 10, 31)):
        for d in range(7):
            day = first + timedelta(days=d)
            out += [day + timedelta(hours=13, minutes=30 * k) for k in range(14)]
    for switch in (datetime(2019, 3, 10), datetime(2019, 11, 3)):
        out += [switch + timedelta(hours=h) for h in (4, 5, 7, 8)]
    return sorted(out)


@pytest.mark.parametrize("spelling", FAST_SPELLINGS)
@pytest.mark.parametrize("n_cols", [2, 6])
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("final_newline", [False, True])
def test_common_layouts_take_the_fast_path(tmp_path, spelling, n_cols, header,
                                           final_newline):
    rng = np.random.default_rng(len(spelling) * 8 + n_cols * 2 + header)
    stamps = utc_stamps()
    prices = rng.uniform(10, 500, len(stamps)).tolist()
    order = rng.permutation(len(stamps))
    lines = [HEADERS[n_cols]] if header else []
    for i in order:
        close = repr(prices[i])
        rest = [close] if n_cols == 2 else [close, close, close, close, "1200"]
        lines.append(",".join([SPELLINGS[spelling](stamps[i])] + rest))
    path = tmp_path / "X.csv"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""))

    parsed = _parse_fast(path.read_bytes(), NEW_YORK)
    assert parsed is not None
    rows = _load_bars_rows(path, "X")
    assert np.array_equal(parsed[0], rows.timestamps)
    assert np.array_equal(parsed[1], rows.closes)
    assert len(rows) == len(stamps)


def test_utc_offsets_are_shared_across_files_and_zones(tmp_path):
    # Two Z files over the same days, both spanning the spring-forward and
    # the fall-back switch, read in two zones: each read equals the row
    # parser, and each zone looks each UTC day up once for both files.
    stamps = utc_stamps()
    paths = []
    for name, closes in (("A", "1.5"), ("B", "2.5")):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(f"{SPELLINGS['utc'](t)},{closes}\n" for t in stamps))
        paths.append(path)
    n_days = len({t.date() for t in stamps})
    _day_offsets.cache_clear()
    for tz in ("America/New_York", "Europe/London"):
        for path in paths:
            fast = load_bars(path, path.stem, tz=tz)
            rows = _load_bars_rows(path, path.stem, tz=tz)
            assert np.array_equal(fast.timestamps, rows.timestamps)
            assert np.array_equal(fast.closes, rows.closes)
    info = _day_offsets.cache_info()
    assert info.misses == 2 * n_days
    assert info.hits == 2 * n_days


@pytest.mark.parametrize("parse", [load_bars, _load_bars_rows])
@pytest.mark.parametrize("tz", [None, ""])
def test_empty_zone_is_the_default_zone(tmp_path, parse, tz):
    path = tmp_path / "X.csv"
    path.write_text("".join(f"{SPELLINGS['utc'](t)},1.5\n" for t in utc_stamps()))
    assert outcome(parse, path, tz) == outcome(parse, path, "America/New_York")


@pytest.mark.parametrize("text, stamp", [
    ("2019-04-01 09:30,1.0\n2019-04-01 09:30,2.0\n", "2019-04-01 09:30"),
    # 10:00 repeats first in the file, 09:30 first in time
    ("2019-04-01 10:00,1.0\n2019-04-01 10:00,2.0\n2019-04-01 09:30,3.0\n"
     "2019-04-01 09:30,4.0\n", "2019-04-01 09:30"),
    # 20:00 repeats first, outside the trading window, so 10:00 is named
    ("2019-04-01 20:00,1.0\n2019-04-01 20:00,2.0\n2019-04-01 10:00,3.0\n"
     "2019-04-01 10:00,4.0\n", "2019-04-01 10:00"),
], ids=["same_stamp", "earliest_in_time", "earliest_in_window"])
def test_fast_path_raises_the_row_parsers_duplicate(tmp_path, text, stamp):
    data = text.encode("ascii")
    with pytest.raises(DuplicateTimestamp, match=f"^duplicate timestamp {stamp}:00$"):
        _parse_fast(data, NEW_YORK)
    assert parsed(_parse_fast, data) == parsed(_parse_rows, data)
    path = tmp_path / "X.csv"
    path.write_bytes(data)
    assert outcome(load_bars, path, "America/New_York") == parsed(_parse_rows, data)


#: Hourly UTC bars through the New York fall-back hour: 05:30Z and 06:30Z
#: on 2019-11-03 are both 01:30 there, outside the trading window.
FALL_BACK_UTC = [datetime(2019, 11, 3, h, 30) for h in (4, 5, 6, 7)]


@pytest.mark.parametrize("spelling, newline, fast", [
    ("utc", "\n", True),
    ("utc", "\r\n", False),
    ("offset", "\n", False),
], ids=["z", "crlf", "offset"])
def test_fall_back_hour_keeps_the_first_bar(tmp_path, spelling, newline, fast):
    data = "".join(f"{SPELLINGS[spelling](t)},{close}{newline}" for t, close
                   in zip(FALL_BACK_UTC, ("1.0", "2.0", "3.0", "4.0"))).encode("ascii")
    assert (_parse_fast(data, NEW_YORK) is not None) == fast
    path = tmp_path / "X.csv"
    path.write_bytes(data)
    series = load_bars(path, "X")
    assert series.timestamps.tolist() == [datetime(2019, 11, 3, 0, 30),
                                          datetime(2019, 11, 3, 1, 30),
                                          datetime(2019, 11, 3, 2, 30)]
    assert series.closes.tolist() == [1.0, 2.0, 4.0]  # 06:30Z's 3.0 is dropped
    assert outcome(load_bars, path, "America/New_York") == parsed(_parse_rows, data)


def test_repeats_outside_the_window_keep_the_first_bar_in_file_order():
    # both parsers keep the first bar in file order of the three 20:00 bars
    # and of the two 08:00 bars
    data = (b"2019-04-01 20:00,5.0\n2019-04-01 10:00,1.0\n2019-04-01 20:00,6.0\n"
            b"2019-04-01 08:00,7.0\n2019-04-01 20:00,8.0\n2019-04-01 08:00,9.0\n")
    expected = ([int(np.datetime64(f"2019-04-01T{hm}", "s").astype(np.int64))
                 for hm in ("08:00", "10:00", "20:00")], [7.0, 1.0, 5.0])
    assert parsed(_parse_fast, data) == expected
    assert parsed(_parse_rows, data) == expected


@pytest.mark.parametrize("stamp", [
    "2019-02-29 09:30", "2019-04-31 09:30", "2019-13-01 09:30",
    "2019-00-10 09:30", "2019-04-00 09:30", "2019-04-01 24:00",
    "2019-04-01 09:60", "2019-04-01T09:30:60", "0000-04-01 09:30",
    "2019/04/01 09:30", "2019-04-01 09-30", "2019-04-0a 09:30",
    # numpy alone reads these as the years 19, -19 and 19
    "+019-04-01 09:30", "-019-04-01 09:30", " 019-04-01 09:30",
])
def test_invalid_stamps_are_left_to_row_parser(tmp_path, stamp):
    good = "2019-04-01 09:00" if len(stamp) == 16 else "2019-04-01T09:00:00"
    path = tmp_path / "X.csv"
    path.write_text(f"{good},1.0\n{stamp},2.0\n")
    assert _parse_fast(path.read_bytes(), NEW_YORK) is None
    with pytest.raises(MalformedRow) as err:
        load_bars(path, "X")
    assert err.value.line_no == 2


EPOCH = datetime(1970, 1, 1)


def stamp_rows(texts: list[str]) -> np.ndarray:
    """Equal-width stamps, one row of bytes each."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(len(texts), -1)


def epoch_seconds(t: datetime) -> int:
    return (t - EPOCH) // timedelta(seconds=1)


@given(st.lists(st.datetimes(min_value=datetime(1, 1, 1),
                             max_value=datetime(9999, 12, 31, 23, 59, 59)),
                min_size=1, max_size=20),
       st.booleans(), st.sampled_from("T "), st.sampled_from(["", "Z"]))
@settings(max_examples=300, deadline=None)
def test_stamp_seconds_match_datetime(instants, with_seconds, sep, suffix):
    # formatted by hand: strftime leaves years below 1000 unpadded on glibc
    spelling = ("{:04d}-{:02d}-{:02d}" + sep + "{:02d}:{:02d}"
                + (":{:02d}" if with_seconds else "") + suffix)
    texts = [spelling.format(t.year, t.month, t.day, t.hour, t.minute, t.second)
             for t in instants]
    expected = [epoch_seconds(t.replace(second=t.second if with_seconds else 0,
                                        microsecond=0)) for t in instants]
    assert _fixed_width_seconds(stamp_rows(texts)).tolist() == expected


@pytest.mark.parametrize("year", [1, 4, 100, 400, 1600, 1700, 1900, 2000, 2019,
                                  2020, 2100, 2400, 9996, 9999])
def test_february_29_only_in_leap_years(year):
    secs = _fixed_width_seconds(stamp_rows([f"{year:04d}-02-29 12:00"]))
    if calendar.isleap(year):
        assert secs.tolist() == [epoch_seconds(datetime(year, 2, 29, 12))]
    else:
        assert secs is None


TWO = "2019-04-01 09:30,1.0\n2019-04-01 10:00,2.0\n2019-04-01 10:30,3.0\n"
SIX = ("2019-04-01 09:30,1,1,1,1.0,5\n2019-04-01 10:00,1,1,1,2.0,5\n"
       "2019-04-01 10:30,1,1,1,3.0,5\n")


@pytest.mark.parametrize("text", [
    '"2019-04-01 09:30",1.0\n2019-04-01 10:00,2.0\n',
    "2019-04-01 09:30,1.0\n2019-04-01 10:00,2.0\x00\n",
    "2019-04-01 09:30,1.0\r\n2019-04-01 10:00,2.0\r\n",
    "2019-04-01 09:30,1.0\r2019-04-01 10:00,2.0\r",
    "timestamp,close\n   \n2019-04-01 09:30,1.0\n",
    ",,\n2019-04-01 09:30,1.0\n",
    "2019-04-01 09:30,1.0\n2019-04-01 10:00:00,2.0\n",
    "2019-04-01T13:30:00+00:00,1.0\n2019-04-01T14:00:00+00:00,2.0\n",
    "2019-04-01T13:30:00z,1.0\n2019-04-01T14:00:00z,2.0\n",
    "2019-04-01 09:30,1.0\n2019-04-01 10:00,0\n",
    "2019-04-01 09:30,1.0\n2019-04-01 10:00,inf\n",
    "ticker é,close\n2019-04-01 09:30,1.0\n",
    "2019-04-01T13:30:00Z,1.0\n0001-01-01T05:00:00Z,2.0\n",
    "2019-04-01 09:30,1,1,1,1.0,1\n2019-04-01 10:00,1,1,1,2.0," + "9" * 140_000 + "\n",
    # a line with another column count; in the second and fourth file the
    # comma total is right for the data lines, in the last two it is right
    # when the header's commas are counted
    TWO.replace(",2.0", ",2.0,"),
    TWO.replace(",2.0", ",2.0,").replace(",3.0", "3.0"),
    SIX.replace(",2.0,5", ",2.0"),
    SIX.replace(",2.0,5", ",2.0,5,").replace(",3.0,5", ",3.05"),
    "timestamp,close\n" + TWO.replace(",1.0", ",1.0,"),
    "timestamp,close\n" + TWO.replace(",3.0", "3.0"),
    "timestamp,close,\n" + TWO.replace(",2.0", "2.0").replace(",3.0", "3.0"),
])
def test_other_files_are_left_to_row_parser(tmp_path, text):
    path = tmp_path / "X.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _parse_fast(path.read_bytes(), NEW_YORK) is None
    assert outcome(load_bars, path, "America/New_York") == \
        outcome(_load_bars_rows, path, "America/New_York")


def test_row_parser_file_is_read_once(tmp_path, monkeypatch):
    path = tmp_path / "X.csv"
    path.write_bytes(b"2019-04-01 09:30,1.0\r\n2019-04-01 10:00,2.0\r\n")
    assert _parse_fast(path.read_bytes(), NEW_YORK) is None
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes",
                        lambda self: reads.append(self) or read_bytes(self))
    assert load_bars(path, "X").closes.tolist() == [1.0, 2.0]
    assert reads == [path]


def test_row_parser_finds_duplicates_before_dropping_fractions():
    # .25 and .5 seconds past one second: one second each, so a repeat
    data = b"2019-04-01T09:30:00.250,1.0\n2019-04-01T09:30:00.500,2.0\n"
    with pytest.raises(DuplicateTimestamp,
                       match="^duplicate timestamp 2019-04-01 09:30:00$"):
        _parse_rows(data, NEW_YORK)
    stamps, closes = _parse_rows(
        b"2019-04-01T09:30:00.500,2.0\n2019-04-01T09:30:01.250,1.0\n", NEW_YORK)
    assert stamps.dtype == np.dtype("datetime64[s]")
    assert stamps.tolist() == [datetime(2019, 4, 1, 9, 30),
                               datetime(2019, 4, 1, 9, 30, 1)]
    assert closes.tolist() == [2.0, 1.0]


@pytest.mark.parametrize("text", [
    "2019-04-01T09:30:00.250,1.0\n2019-04-01T09:30:00.500,2.0\n",
    "2019-04-01 09:30,1.0\n2019-04-01T09:30:00.999999,2.0\n",
])
def test_two_bars_in_one_second_are_a_repeat(tmp_path, text):
    path = tmp_path / "X.csv"
    path.write_text(text)
    with pytest.raises(DuplicateTimestamp,
                       match="^duplicate timestamp 2019-04-01 09:30:00$"):
        load_bars(path, "X")


@pytest.mark.parametrize("text", [
    "timestamp,close,\n" + TWO,
    "timestamp,open,high,low,close,volume\n" + TWO,
    "timestamp,close\n" + SIX,
    "timestamp\n" + SIX,
])
def test_header_column_count_is_not_the_data_count(tmp_path, text):
    path = tmp_path / "X.csv"
    path.write_text(text)
    parsed = _parse_fast(path.read_bytes(), NEW_YORK)
    assert parsed is not None
    assert parsed[1].tolist() == [1.0, 2.0, 3.0]
    assert outcome(load_bars, path, "America/New_York") == \
        outcome(_load_bars_rows, path, "America/New_York")


@pytest.mark.parametrize("header", ["", "timestamp,close\n"])
def test_byte_order_mark_is_skipped(tmp_path, header):
    path = tmp_path / "X.csv"
    path.write_bytes(("\ufeff" + header + "2019-04-01 09:30,1.0\n"
                      "2019-04-01 10:00,2.0\n2019-04-01 10:30,3.0\n").encode("utf-8"))
    for parse in (load_bars, _load_bars_rows):
        assert parse(path, "X").closes.tolist() == [1.0, 2.0, 3.0]


def test_oversized_field_is_malformed_row(tmp_path):
    path = tmp_path / "X.csv"
    path.write_text("2019-04-01 09:30,1.0\n2019-04-01 10:00,"
                    + "9" * (csv.field_size_limit() + 1) + "\n")
    for parse in (load_bars, _load_bars_rows):
        with pytest.raises(MalformedRow) as err:
            parse(path, "X")
        assert err.value.line_no == 2
