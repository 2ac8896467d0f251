from __future__ import annotations

import json

import pytest

from herdscan import cli
from herdscan.cli import main

from generators import vehicle_event_panel


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

    def test_thread_env_respected(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HERDSCAN_THREADS", "1")
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
def test_bad_thread_env_fails_before_loading(data_dir, tmp_path, command,
                                              monkeypatch, capsys):
    def no_load(*args, **kwargs):
        raise AssertionError("the panel was loaded before HERDSCAN_THREADS was checked")

    monkeypatch.setattr(cli, "load_panel", no_load)
    monkeypatch.setenv("HERDSCAN_THREADS", "zero")
    args = [command, "--data-dir", str(data_dir["bars"]),
            "--sectors", str(data_dir["sectors"]), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "HERDSCAN_THREADS='zero' is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["communities", "csad"])
def test_unwritable_out_is_io_failure(data_dir, tmp_path, command, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    args = [command, "--data-dir", str(data_dir["bars"]), "--out", str(out)]
    assert main(args) == 3
    assert f"cannot write {out}" in capsys.readouterr().err


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
