"""Differential tests of the one-pass bar parser against the row parser.

``load_bars`` parses the common file spellings in one numpy pass and hands
everything else to ``_load_bars_rows``. Whatever the file holds, both must
return the same series or raise the same error at the same line.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdscan.errors import DuplicateTimestamp, MalformedRow
from herdscan.ingest import _day_offsets, _load_bars_rows, _parse_fast, load_bars

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
        close = repr(draw(st.floats(min_value=1e-3, max_value=1e6)))
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


def outcome(parse, path, tz):
    try:
        s = parse(path, "X", tz=tz)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return s.timestamps.astype(np.int64).tolist(), s.closes.tolist()


@pytest.fixture(scope="module")
def bar_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "X.csv"


@given(data=bar_files(), tz=st.sampled_from(["America/New_York", None]))
@settings(max_examples=400, deadline=None)
def test_load_bars_matches_row_parser(bar_path, data, tz):
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


def test_fall_back_hour_duplicate_is_left_to_row_parser(tmp_path):
    # 05:30Z and 06:30Z on 2019-11-03 are both 01:30 in New York
    path = tmp_path / "X.csv"
    path.write_text("2019-11-03T05:30:00Z,1.0\n2019-11-03T06:30:00Z,2.0\n")
    assert _parse_fast(path.read_bytes(), NEW_YORK) is None
    with pytest.raises(DuplicateTimestamp):
        load_bars(path, "X")


@pytest.mark.parametrize("stamp", [
    "2019-02-29 09:30", "2019-04-31 09:30", "2019-13-01 09:30",
    "2019-00-10 09:30", "2019-04-00 09:30", "2019-04-01 24:00",
    "2019-04-01 09:60", "2019-04-01T09:30:60", "0000-04-01 09:30",
    "2019/04/01 09:30", "2019-04-01 09-30", "2019-04-0a 09:30",
])
def test_invalid_stamps_are_left_to_row_parser(tmp_path, stamp):
    good = "2019-04-01 09:00" if len(stamp) == 16 else "2019-04-01T09:00:00"
    path = tmp_path / "X.csv"
    path.write_text(f"{good},1.0\n{stamp},2.0\n")
    assert _parse_fast(path.read_bytes(), NEW_YORK) is None
    with pytest.raises(MalformedRow) as err:
        load_bars(path, "X")
    assert err.value.line_no == 2


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
    "2019-04-01 09:30,1.0\n2019-04-01 09:30,2.0\n",
    "ticker é,close\n2019-04-01 09:30,1.0\n",
    "2019-04-01T13:30:00Z,1.0\n0001-01-01T05:00:00Z,2.0\n",
    "2019-04-01 09:30,1,1,1,1.0,1\n2019-04-01 10:00,1,1,1,2.0," + "9" * 140_000 + "\n",
])
def test_other_files_are_left_to_row_parser(tmp_path, text):
    path = tmp_path / "X.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _parse_fast(path.read_bytes(), NEW_YORK) is None
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
