from __future__ import annotations

import json
import logging
import shutil
from datetime import datetime, time, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from herdscan import cli, pipeline
from herdscan.cli import main
from herdscan.ingest import read_sector_map, read_subperiods
from herdscan.pipeline import (
    _REPORT_PATTERNS,
    community_structure,
    emit_communities,
    emit_csad,
    emit_report,
    load_panel,
    run_analysis,
    thread_cap,
)
from herdscan.returns import csad, log_returns

from generators import flat_day_panel, vehicle_event_panel


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small three-vehicle dataset on disk: bar CSVs plus config files."""
    panel, event, calm = vehicle_event_panel(12, n_per_vehicle=4,
                                             event_bars=650, calm_bars=350)
    root = tmp_path_factory.mktemp("cli_data")
    bars = root / "bars"
    bars.mkdir()
    stamps = [str(t).replace("T", " ")[:16] for t in panel.grid]
    for i, meta in enumerate(panel.assets):
        rows = [f"{ts},{p:.8f}" for ts, p in zip(stamps, panel.prices[i])]
        (bars / f"{meta.ticker}.csv").write_text("\n".join(rows) + "\n")
    sectors = root / "sectors.txt"
    sectors.write_text("".join(
        f"{m.ticker} {m.vehicle.value} {m.sector.value}\n"
        for m in panel.assets))
    subs = root / "subs.csv"
    subs.write_text(
        f"event,{event.start},{event.end}\ncalm,{calm.start},{calm.end}\n")
    return {"bars": bars, "sectors": sectors, "subs": subs, "root": root}


class TestAnalyze:
    def test_full_run(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["sectors"]),
                     "--subperiods", str(data_dir["subs"]),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert set(doc["combined"]) == {"event", "calm", "full"}
        assert set(doc["per_vehicle"]) == {"crypto", "etf", "stock"}
        assert (out / "verdicts.csv").exists()
        assert (out / "mst_full.csv").exists()

    def test_vehicle_filter(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["sectors"]),
                     "--subperiods", str(data_dir["subs"]),
                     "--vehicle", "crypto", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert set(doc["per_vehicle"]) == {"crypto"}

    def test_beta_proxy_and_flags(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["sectors"]),
                     "--subperiods", str(data_dir["subs"]),
                     "--beta-proxy", "E00", "--hac",
                     "--louvain-weights", "similarity",
                     "--min-community-size", "3",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["betas"]["etf"]["proxy"] == "E00"
        assert doc["config"]["hac"] is True

    def test_missing_sector_map_is_config_error(self, data_dir, tmp_path):
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["root"] / "nope.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_beta_proxy_is_config_error(self, data_dir, tmp_path):
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["sectors"]),
                     "--beta-proxy", "NOPE",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_beta_proxy_outside_vehicle_is_config_error(self, data_dir, tmp_path):
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["sectors"]),
                     "--vehicle", "crypto", "--beta-proxy", "E00",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_beta_proxy_ignores_case(self, data_dir, tmp_path):
        # tickers are upper-cased file stems, so the flag is upper-cased too
        for proxy in ("e00", "E00"):
            assert main(["analyze", "--data-dir", str(data_dir["bars"]),
                         "--sectors", str(data_dir["sectors"]),
                         "--subperiods", str(data_dir["subs"]),
                         "--beta-proxy", proxy,
                         "--out", str(tmp_path / proxy)]) == 0
        assert ((tmp_path / "e00" / "run.json").read_bytes()
                == (tmp_path / "E00" / "run.json").read_bytes())

    def test_bad_data_is_data_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "AAA.csv").write_text("2019-04-01 09:30,100.0\n"
                                     "2019-04-01 10:00,-5.0\n")
        (bad / "BBB.csv").write_text("2019-04-01 09:30,100.0\n")
        sectors = tmp_path / "s.txt"
        sectors.write_text("AAA stock Energy\nBBB stock Energy\n")
        code = main(["analyze", "--data-dir", str(bad),
                     "--sectors", str(sectors),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("command", ["analyze", "csad"])
    def test_non_utf8_bars_are_data_error(self, data_dir, tmp_path, command):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "AAA.csv").write_bytes(b"2019-04-01 09:30,100.0\n"
                                      b"2019-04-01 10:00,\xe9\n")
        (bad / "BBB.csv").write_text("2019-04-01 09:30,100.0\n")
        sectors = tmp_path / "s.txt"
        sectors.write_text("AAA stock Energy\nBBB stock Energy\n")
        args = [command, "--data-dir", str(bad), "--out", str(tmp_path / "out")]
        if command == "analyze":
            args += ["--sectors", str(sectors)]
        assert main(args) == 3

    @pytest.mark.parametrize("command", ["analyze", "communities", "csad"])
    def test_two_files_for_one_ticker_are_data_error(self, data_dir, tmp_path,
                                                     capsys, command):
        bars = tmp_path / "bars"
        bars.mkdir()
        for path in data_dir["bars"].glob("*.csv"):
            (bars / path.name).write_bytes(path.read_bytes())
        (bars / "e00.csv").write_bytes((bars / "E00.csv").read_bytes())
        args = [command, "--data-dir", str(bars), "--out", str(tmp_path / "out")]
        if command == "analyze":
            args += ["--sectors", str(data_dir["sectors"])]
        assert main(args) == 3
        assert "E00.csv and e00.csv both name ticker E00" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_comma_in_mapped_ticker_is_config_error(self, data_dir, tmp_path,
                                                    capsys):
        # the ticker would shift the columns of its rows in every report
        sectors = tmp_path / "sectors.txt"
        sectors.write_text(data_dir["sectors"].read_text() + "A,B stock Energy\n")
        n_lines = len(sectors.read_text().splitlines())
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(sectors), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {sectors}:{n_lines}: ticker 'A,B' holds one of" in err
        assert not (tmp_path / "out").exists()

    def test_thread_env_respected(self, data_dir, tmp_path, monkeypatch):
        # nothing reads HERDSCAN_THREADS: the sub-period pass is serial
        monkeypatch.setenv("HERDSCAN_THREADS", "zero")
        out = tmp_path / "out"
        code = main(["analyze", "--data-dir", str(data_dir["bars"]),
                     "--sectors", str(data_dir["sectors"]),
                     "--subperiods", str(data_dir["subs"]),
                     "--out", str(out)])
        assert code == 0

    def test_reruns_byte_identical(self, data_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["analyze", "--data-dir", str(data_dir["bars"]),
                         "--sectors", str(data_dir["sectors"]),
                         "--subperiods", str(data_dir["subs"]),
                         "--out", str(out)]) == 0
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            assert f.read_bytes() == (outs[1] / f.name).read_bytes()


    def test_rerun_into_same_out_removes_stale_reports(self, data_dir, tmp_path):
        def analyze(subs_text: str, out):
            subs = tmp_path / "subs.csv"
            subs.write_text(subs_text)
            assert main(["analyze", "--data-dir", str(data_dir["bars"]),
                         "--sectors", str(data_dir["sectors"]),
                         "--subperiods", str(subs), "--out", str(out)]) == 0

        first = data_dir["subs"].read_text()
        event_only = first.splitlines()[0].replace("event,", "spike,") + "\n"
        out = tmp_path / "out"
        analyze(first, out)
        foreign = {"notes.txt": "mine", "run.json.bak": "old", "mst_calm.txt": "x",
                   "partition_calm.txt": "y"}
        for name, text in foreign.items():
            (out / name).write_text(text)
        (out / "mst_dir.csv").mkdir()
        analyze(event_only, out)
        fresh = tmp_path / "fresh"
        analyze(event_only, fresh)

        reports = sorted(p.name for p in fresh.iterdir())
        assert reports == ["communities_full.csv", "communities_spike.csv",
                           "mst_full.csv", "mst_spike.csv", "plotdata_full.csv",
                           "plotdata_spike.csv", "run.json", "verdicts.csv"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*reports, *foreign, "mst_dir.csv"])
        for name in reports:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        for name, text in foreign.items():
            assert (out / name).read_text() == text

    def test_analyze_after_communities_removes_the_partitions(self, data_dir,
                                                              tmp_path):
        subs = tmp_path / "subs.csv"
        subs.write_text(data_dir["subs"].read_text().splitlines()[0] + "\n")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        common = ["--data-dir", str(data_dir["bars"]),
                  "--sectors", str(data_dir["sectors"])]
        assert main(["communities", *common, "--subperiods",
                     str(data_dir["subs"]), "--out", str(out)]) == 0
        assert (out / "partition_calm.csv").is_file()
        for target in (out, fresh):
            assert main(["analyze", *common, "--subperiods", str(subs),
                         "--out", str(target)]) == 0

        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir())
        assert not [n for n in names if n.startswith("partition_")]
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("command", ["analyze", "communities", "csad"])
def test_unknown_time_zone_is_config_error(data_dir, tmp_path, command, capsys):
    args = [command, "--data-dir", str(data_dir["bars"]),
            "--sectors", str(data_dir["sectors"]),
            "--tz", "Not/AZone", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "unknown time zone 'Not/AZone'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "communities", "csad"])
def test_thread_env_changes_no_output(data_dir, tmp_path, monkeypatch, command):
    # no command reads HERDSCAN_THREADS, so even a value that is not a
    # number neither stops a run nor changes a byte of its output
    args = [command, "--data-dir", str(data_dir["bars"]),
            "--sectors", str(data_dir["sectors"])]
    if command != "csad":
        args += ["--subperiods", str(data_dir["subs"])]
    plain, with_env = tmp_path / "plain", tmp_path / "env"
    monkeypatch.delenv("HERDSCAN_THREADS", raising=False)
    assert main([*args, "--out", str(plain)]) == 0
    monkeypatch.setenv("HERDSCAN_THREADS", "zero")
    assert main([*args, "--out", str(with_env)]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in with_env.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (with_env / name).read_bytes(), name


@pytest.mark.parametrize("command, flag, text, message", [
    ("analyze", "--subperiods", b"event,2019-04-01\n", ":1: expected 'name,start,end'"),
    ("communities", "--subperiods", b"event,2019-04-01\n",
     ":1: expected 'name,start,end'"),
    ("analyze", "--subperiods", b"# caf\xe9\n", ":1: not UTF-8"),
    ("analyze", "--sectors", b"E00 etf UsEtf\n\xff\n", ":2: not UTF-8"),
    ("csad", "--sectors", b"E00 etf UsEtf\n\xff\n", ":2: not UTF-8"),
])
def test_bad_config_file_fails_before_loading(data_dir, tmp_path, monkeypatch,
                                              capsys, command, flag, text, message):
    def no_load(*args, **kwargs):
        raise AssertionError("the panel was loaded before the config files were read")

    monkeypatch.setattr(cli, "load_panel", no_load)
    config = tmp_path / "config"
    config.write_bytes(text)
    args = [command, "--data-dir", str(data_dir["bars"]), flag, str(config),
            "--out", str(tmp_path / "out")]
    if flag != "--sectors":
        args += ["--sectors", str(data_dir["sectors"])]
    assert main(args) == 2
    assert f"config error: {config}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "communities", "csad"])
def test_empty_data_dir_is_data_error(data_dir, tmp_path, command, capsys):
    empty = tmp_path / "bars"
    empty.mkdir()
    (empty / "notes.txt").write_text("no bar files here\n")
    args = [command, "--data-dir", str(empty), "--out", str(tmp_path / "out")]
    if command == "analyze":
        args += ["--sectors", str(data_dir["sectors"])]
    assert main(args) == 3
    assert f"no CSV files in {empty}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["communities", "csad"])
def test_semicolon_in_unmapped_file_name_is_config_error(data_dir, tmp_path, command,
                                                         capsys):
    # without --sectors every file's stem is a ticker; a ";" in one would
    # split the members cell of its community
    bars = tmp_path / "bars"
    bars.mkdir()
    for path in data_dir["bars"].glob("*.csv"):
        (bars / path.name).write_bytes(path.read_bytes())
    (bars / "A;B.csv").write_bytes((bars / "E00.csv").read_bytes())
    args = [command, "--data-dir", str(bars), "--out", str(tmp_path / "out")]
    if command == "communities":
        args += ["--subperiods", str(data_dir["subs"])]
    assert main(args) == 2
    assert "config error: ticker 'A;B' holds one of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "communities"])
def test_flat_asset_error_names_the_period(tmp_path, command, capsys):
    panel, flat = flat_day_panel()
    bars = tmp_path / "bars"
    bars.mkdir()
    stamps = [str(t).replace("T", " ")[:16] for t in panel.grid]
    for ticker, prices in zip(panel.tickers, panel.prices):
        rows = [f"{ts},{p:.8f}" for ts, p in zip(stamps, prices)]
        (bars / f"{ticker}.csv").write_text("\n".join(rows) + "\n")
    subs = tmp_path / "subs.csv"
    subs.write_text(f"{flat.name},{flat.start},{flat.end}\n")
    args = [command, "--data-dir", str(bars), "--subperiods", str(subs),
            "--out", str(tmp_path / "out")]
    if command == "analyze":
        sectors = tmp_path / "sectors.txt"
        sectors.write_text("".join(f"{t} stock Energy\n" for t in panel.tickers))
        args += ["--sectors", str(sectors)]
    assert main(args) == 3
    assert ("data error: asset S003 has (near-)zero return variance"
            " from 2019-04-03T10:00:00 to 2019-04-03T15:30:00"
            in capsys.readouterr().err)


def test_data_error_names_the_bar_file(tmp_path, capsys):
    bars = tmp_path / "bars"
    bars.mkdir()
    (bars / "AAA.csv").write_text("2019-04-01 09:30,1.0\nbad,2\n")
    (bars / "BBB.csv").write_text("2019-04-01 09:30,1.0\n2019-04-01 10:00,2\n")
    assert main(["csad", "--data-dir", str(bars), "--out", str(tmp_path / "out")]) == 3
    assert ("data error: AAA.csv: malformed row at line 2: Invalid isoformat"
            " string: 'bad'" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["communities", "csad"])
def test_unwritable_out_is_io_failure(data_dir, tmp_path, command, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    args = [command, "--data-dir", str(data_dir["bars"]), "--out", str(out)]
    assert main(args) == 3
    assert f"cannot write {out}" in capsys.readouterr().err


def test_crypto_utc_bars_through_the_fall_back_hour(tmp_path):
    # Two cryptos with half-hourly UTC bars around the clock through
    # 2019-11-03, when 05:00Z/06:00Z and 05:30Z/06:30Z fall on one New York
    # wall-clock time each, outside the trading window, next to three stocks
    # with New York trading-hour bars.
    rng = np.random.default_rng(5)
    utc = np.arange(np.datetime64("2019-10-28T00:00"), np.datetime64("2019-11-09T00:00"),
                    np.timedelta64(30, "m"))
    local = np.array([datetime.fromisoformat(str(t)).replace(tzinfo=timezone.utc)
                      .astimezone(ZoneInfo("America/New_York")).replace(tzinfo=None)
                      for t in utc])
    trading = np.array([t.weekday() < 5 and time(9, 30) <= t.time() < time(16)
                        for t in local])
    bars = tmp_path / "bars"
    bars.mkdir()
    for ticker in ("C00", "C01", "S00", "S01", "S02"):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.002, utc.size)))
        if ticker.startswith("C"):
            rows = [f"{t}:00Z,{p:.6f}" for t, p in zip(utc, prices)]
        else:
            rows = [f"{t:%Y-%m-%d %H:%M},{p:.6f}"
                    for t, p in zip(local[trading], prices[trading])]
        (bars / f"{ticker}.csv").write_text("\n".join(rows) + "\n")
    sectors = tmp_path / "sectors.txt"
    sectors.write_text("C00 crypto Crypto\nC01 crypto Crypto\n"
                       "S00 stock Energy\nS01 stock Energy\nS02 stock Energy\n")
    subs = tmp_path / "subs.csv"
    subs.write_text("before,2019-10-28,2019-11-01\nafter,2019-11-04,2019-11-08\n")
    out = tmp_path / "out"
    assert main(["analyze", "--data-dir", str(bars), "--sectors", str(sectors),
                 "--subperiods", str(subs), "--out", str(out)]) == 0
    config = json.loads((out / "run.json").read_text())["config"]
    assert config["n_assets"] == 5
    assert config["n_timestamps"] == 10 * 13


class TestLoadLog:
    @pytest.fixture
    def bars_with_rejects(self, data_dir, tmp_path):
        """The CLI dataset with S01 and C02 missing every tenth and every
        other bar: both rejected. E01 misses its first two bars and two
        later ones, which are filled: 2 cells back-filled, 2 forward-filled."""
        bars = tmp_path / "bars"
        shutil.copytree(data_dir["bars"], bars)
        for ticker, cut in (("S01", slice(1, None, 10)), ("C02", slice(1, None, 2)),
                            ("E01", [0, 1, 100, 200])):
            path = bars / f"{ticker}.csv"
            lines = np.delete(path.read_text().splitlines(), cut).tolist()
            path.write_text("\n".join(lines) + "\n")
        return bars

    def analyze(self, data_dir, bars, out, caplog) -> list[str]:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="herdscan"):
            assert main(["analyze", "--data-dir", str(bars),
                         "--sectors", str(data_dir["sectors"]),
                         "--subperiods", str(data_dir["subs"]),
                         "--out", str(out)]) == 0
        return [r.getMessage() for r in caplog.records if r.name == "herdscan"]

    def test_loaded_line_names_the_pool_size(self, data_dir, bars_with_rejects,
                                             tmp_path, caplog, monkeypatch):
        n_files = len(list(bars_with_rejects.glob("*.csv")))
        lines = self.analyze(data_dir, bars_with_rejects, tmp_path / "a", caplog)
        [loaded] = [line for line in lines if line.startswith("loaded ")]
        workers = min(thread_cap(), n_files)
        assert f" on {workers} parse thread{'s' if workers > 1 else ''} (" in loaded
        assert loaded.endswith("(2 rejected: C02,S01), 2 cells forward-filled"
                               " and 2 back-filled")
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "thread_cap", lambda: 1)
        lines = self.analyze(data_dir, bars_with_rejects, tmp_path / "b", caplog)
        assert [line for line in lines if " on 1 parse thread (" in line]
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_one_line_per_rejected_asset(self, data_dir, bars_with_rejects,
                                         tmp_path, caplog):
        _, decisions = load_panel(bars_with_rejects,
                                  read_sector_map(data_dir["sectors"]))
        lines = self.analyze(data_dir, bars_with_rejects, tmp_path / "out", caplog)
        rejected = [line for line in lines if line.startswith("rejected ")]
        assert rejected == [
            f"rejected C02 (crypto): {100 * decisions['C02'].missing_fraction:.3f}%"
            " of the grid missing, limit 10%",
            f"rejected S01 (stock): {100 * decisions['S01'].missing_fraction:.3f}%"
            " of the grid missing, limit 1%",
        ]
        assert 40 < 100 * decisions["C02"].missing_fraction < 60
        assert 5 < 100 * decisions["S01"].missing_fraction < 15
        levels = {r.getMessage(): r.levelno for r in caplog.records}
        assert all(levels[line] == logging.WARNING for line in rejected)


class TestCommunities:
    def test_mst_files_match_analyze(self, data_dir, tmp_path):
        common = ["--data-dir", str(data_dir["bars"]),
                  "--sectors", str(data_dir["sectors"]),
                  "--subperiods", str(data_dir["subs"])]
        report, graphs = tmp_path / "report", tmp_path / "graphs"
        assert main(["analyze", *common, "--out", str(report)]) == 0
        assert main(["communities", *common, "--out", str(graphs)]) == 0
        for sub in ("event", "calm", "full"):
            name = f"mst_{sub}.csv"
            assert (graphs / name).read_bytes() == (report / name).read_bytes()

    def test_partition_and_mst_files(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["communities", "--data-dir", str(data_dir["bars"]),
                     "--subperiods", str(data_dir["subs"]),
                     "--out", str(out)])
        assert code == 0
        for sub in ("event", "calm", "full"):
            partition = (out / f"partition_{sub}.csv").read_text().splitlines()
            assert partition[0] == "ticker,community_id"
            assert len(partition) == 1 + 12  # every asset assigned once
            tree = (out / f"mst_{sub}.csv").read_text().splitlines()
            assert tree[0] == "source,target,correlation,distance"
            assert len(tree) == 1 + 11

    def test_works_without_sector_map(self, data_dir, tmp_path):
        # vehicle defaults apply; partition output carries no sector info
        out = tmp_path / "out"
        code = main(["communities", "--data-dir", str(data_dir["bars"]),
                     "--subperiods", str(data_dir["subs"]),
                     "--out", str(out)])
        assert code == 0

    def test_rerun_into_same_out_removes_stale_structures(self, data_dir, tmp_path):
        def communities(subs_text: str, out):
            subs = tmp_path / "subs.csv"
            subs.write_text(subs_text)
            assert main(["communities", "--data-dir", str(data_dir["bars"]),
                         "--subperiods", str(subs), "--out", str(out)]) == 0

        first = data_dir["subs"].read_text()
        spike_only = first.splitlines()[0].replace("event,", "spike,") + "\n"
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        communities(first, out)
        (out / "notes.txt").write_text("mine")
        communities(spike_only, out)
        communities(spike_only, fresh)

        names = sorted(p.name for p in fresh.iterdir())
        assert names == ["mst_full.csv", "mst_spike.csv",
                         "partition_full.csv", "partition_spike.csv"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "notes.txt"])
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()


class TestCsadDump:
    def test_series_file(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["csad", "--data-dir", str(data_dir["bars"]),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "csad.csv").read_text().splitlines()
        assert lines[0] == "timestamp,market_return,csad"
        assert len(lines) == 1 + 1000  # 1001 price bars, one return per step
        ts, rm, disp = lines[1].split(",")
        assert float(disp) >= 0.0


def _run(command: str, data_dir, out) -> None:
    args = [command, "--data-dir", str(data_dir["bars"]), "--out", str(out)]
    if command == "analyze":
        args += ["--sectors", str(data_dir["sectors"])]
    if command != "csad":
        args += ["--subperiods", str(data_dir["subs"])]
    assert main(args) == 0


class TestOneCommandPerOut:
    """Whichever command wrote into ``--out`` before, the next one leaves its
    own files there and the files no command writes, nothing else."""

    @pytest.mark.parametrize("first, second", [
        ("analyze", "csad"), ("csad", "analyze"),
        ("communities", "csad"), ("csad", "communities"),
        ("analyze", "communities"), ("communities", "analyze")])
    def test_second_command_removes_the_first_ones_files(self, data_dir, tmp_path,
                                                         first, second):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        _run(first, data_dir, out)
        foreign = {"notes.txt": "mine", "csad.txt": "x", "csad.csv.bak": "y"}
        for name, text in foreign.items():
            (out / name).write_text(text)
        _run(second, data_dir, out)
        _run(second, data_dir, fresh)

        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, *foreign])
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        for name, text in foreign.items():
            assert (out / name).read_text() == text

    def test_every_output_is_named_like_a_report(self, data_dir, tmp_path):
        # an output kind missing from _REPORT_PATTERNS would outlive the next
        # command's sweep; each writer's paths are globbed as the sweep does
        panel, _ = load_panel(data_dir["bars"], read_sector_map(data_dir["sectors"]))
        subs = read_subperiods(data_dir["subs"])
        written = {
            "report": emit_report(run_analysis(panel, subs), tmp_path / "report"),
            "communities": emit_communities(community_structure(panel, subs),
                                            tmp_path / "communities"),
            "csad": emit_csad(csad(log_returns(panel)), tmp_path / "csad"),
        }
        for kind, paths in written.items():
            out = tmp_path / kind
            swept = {p for pattern in _REPORT_PATTERNS for p in out.glob(pattern)}
            assert paths and set(paths) == swept == set(out.iterdir()), kind
