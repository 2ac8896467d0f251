from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import herdscan
from herdscan import pipeline
from herdscan.econometrics import fit_csad_basic, fit_csad_updown, verdict
from herdscan.errors import (
    ConfigError,
    DataError,
    EmptyCommunity,
    EmptySlice,
    OneSidedSample,
    VehicleTooSmall,
)
from herdscan.ingest import AlignedPanel, AssetMeta, Sector, SubPeriod, Vehicle, slice_panel
from herdscan.pipeline import (
    community_structure,
    compute_beta_reports,
    emit_report,
    full_subperiod,
    load_panel,
    run_analysis,
    run_combined,
    run_per_vehicle,
    sector_distribution,
    thread_cap,
)
from herdscan.returns import csad, log_returns
from generators import (
    panel_from_returns,
    planted_two_block_panel,
    random_walk_panel,
    stock_meta,
    vehicle_event_panel,
)
from oracles import rand_index


def energy(t):
    return AssetMeta(t, Vehicle.STOCK, Sector.ENERGY)


def etf(t):
    return AssetMeta(t, Vehicle.US_ETF, Sector.US_ETF)


class TestSectorDistribution:
    def test_four_stocks_one_etf(self):
        members = [energy(t) for t in ("A", "B", "C", "D")] + [etf("XLE")]
        mix = sector_distribution(members)
        assert mix[Sector.ENERGY] == pytest.approx(0.8)
        assert mix[Sector.US_ETF] == pytest.approx(0.2)

    def test_all_crypto(self):
        members = [AssetMeta(t, Vehicle.CRYPTO, Sector.CRYPTO)
                   for t in ("BTC", "ETH", "XRP")]
        assert sector_distribution(members) == {Sector.CRYPTO: 1.0}

    def test_twelve_stocks_four_etfs(self):
        # an energy community: 12 sector stocks plus 4 tracking ETFs
        stocks = [energy(t) for t in
                  ("BKR", "BP", "COP", "CVX", "EOG", "EQNR", "GE2", "PBR",
                   "SHEL", "SLB", "TTE", "XOM")]
        etfs = [etf(t) for t in ("DJP", "IEO", "IYE", "RPV")]
        mix = sector_distribution(stocks + etfs)
        assert mix[Sector.ENERGY] == pytest.approx(0.75)
        assert mix[Sector.US_ETF] == pytest.approx(0.25)
        assert sum(mix.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty(self):
        with pytest.raises(EmptyCommunity):
            sector_distribution([])


class TestRunPerVehicle:
    def test_cell_cardinality(self):
        panel, event, calm = vehicle_event_panel(0)
        subs = [SubPeriod(f"p{i}", event.start, calm.end) for i in range(5)]
        cells = run_per_vehicle(panel, subs)
        assert len(cells) == 3 * 6  # 3 vehicles x (5 subs + full)
        for vehicle in (Vehicle.CRYPTO, Vehicle.STOCK, Vehicle.US_ETF):
            for sub in [s.name for s in subs] + ["full"]:
                assert (vehicle, sub) in cells

    def test_crypto_event_herding_isolated(self):
        hits = 0
        for seed in range(10):
            panel, event, calm = vehicle_event_panel(seed)
            cells = run_per_vehicle(panel, [event, calm])
            crypto_event = cells[(Vehicle.CRYPTO, "event")].verdict
            stock_event = cells[(Vehicle.STOCK, "event")].verdict
            etf_event = cells[(Vehicle.US_ETF, "event")].verdict
            crypto_calm = cells[(Vehicle.CRYPTO, "calm")].verdict
            ok = (crypto_event.herding_any and not stock_event.herding_any
                  and not etf_event.herding_any and not crypto_calm.herding_any)
            hits += ok
        assert hits >= 9

    def test_identical_series_skipped_not_crashed(self):
        # zero cross-sectional dispersion and constant market return
        returns = np.zeros((3, 50))
        panel = panel_from_returns(returns, [stock_meta(t) for t in "ABC"])
        cells = run_per_vehicle(panel, [])
        cell = cells[(Vehicle.STOCK, "full")]
        assert cell.verdict is None
        assert cell.skipped_reason == "degenerate_regressor"

    def test_explicit_vehicle_too_small(self):
        panel = random_walk_panel(1, 4, 60)
        with pytest.raises(VehicleTooSmall):
            run_per_vehicle(panel, [], vehicles=[Vehicle.CRYPTO])

    def test_all_vehicles_means_vehicles_present(self):
        panel = random_walk_panel(2, 4, 60)  # stocks only
        cells = run_per_vehicle(panel, [])
        assert {v for v, _ in cells} == {Vehicle.STOCK}

    def test_one_restrict_per_vehicle(self, monkeypatch):
        metas = ([stock_meta(f"S{i}") for i in range(4)]
                 + [etf(f"E{i}") for i in range(3)]
                 + [AssetMeta("C0", Vehicle.CRYPTO, Sector.CRYPTO)])
        panel = random_walk_panel(5, len(metas), 600, metas=metas)
        first, last = (d.item() for d in panel.grid[[0, -1]].astype("datetime64[D]"))
        mid = first + (last - first) / 2
        subs = [SubPeriod("early", first, mid),
                SubPeriod("late", mid + timedelta(days=1), last),
                SubPeriod("empty", date(2030, 1, 1), date(2030, 1, 2))]
        restrict = AlignedPanel.restrict
        calls = []

        def counting_restrict(self, tickers):
            calls.append(tuple(tickers))
            return restrict(self, tickers)

        monkeypatch.setattr(AlignedPanel, "restrict", counting_restrict)
        monkeypatch.setenv("HERDSCAN_THREADS", "2")
        cells = run_per_vehicle(panel, subs)
        assert sorted(calls) == [("E0", "E1", "E2"), ("S0", "S1", "S2", "S3")]
        assert len(cells) == 3 * (len(subs) + 1)

        # Reference: restrict the panel for every (vehicle, sub-period) unit.
        for (vehicle, sub_name), cell in cells.items():
            tickers = [a.ticker for a in panel.assets if a.vehicle is vehicle]
            sub = next((s for s in subs if s.name == sub_name),
                       full_subperiod(panel))
            assert cell.n_assets == len(tickers)
            if vehicle is Vehicle.CRYPTO:
                assert (cell.skipped_reason, cell.n_obs) == ("too_few_assets", 0)
                continue
            try:
                cs = csad(log_returns(slice_panel(restrict(panel, tickers), sub)))
            except EmptySlice:
                assert sub_name == "empty"
                assert (cell.skipped_reason, cell.n_obs) == ("empty_slice", 0)
                continue
            try:
                fit5 = fit_csad_updown(cs)
            except OneSidedSample:
                fit5 = None
            assert cell.skipped_reason is None and cell.n_obs == len(cs)
            assert cell.verdict == verdict(fit_csad_basic(cs), fit5)


class TestRunCombined:
    def test_planted_blocks_recovered_with_verdicts(self):
        hits = 0
        for seed in range(5):
            panel, truth = planted_two_block_panel(seed)
            # similarity weighting keeps the cross-block bridge weak; on the
            # unit-weight tree the bridge pair itself is the modularity optimum
            reports = run_combined(panel, [], louvain_weights="similarity")["full"]
            membership = {t: r.community_id for r in reports
                          for t in r.members}
            found = np.array([membership[t]
                              for t in truth["A"] + truth["B"]])
            planted = np.array([0] * 10 + [1] * 10)
            if rand_index(found, planted) != 1.0:
                continue
            by_block = {r.members[0][0]: r for r in reports}
            ok = (by_block["A"].verdict.herding_any
                  and not by_block["B"].verdict.herding_any)
            hits += ok
        assert hits >= 4

    def test_sector_mix_reflects_blocks(self):
        panel, truth = planted_two_block_panel(3)
        reports = run_combined(panel, [], louvain_weights="similarity")["full"]
        for r in reports:
            mix = r.sector_distribution
            if r.members[0].startswith("A"):
                assert mix == {Sector.ENERGY: 1.0}
            else:
                assert mix == {Sector.HEALTHCARE: 1.0}

    def test_below_min_size_skipped(self):
        panel, _ = planted_two_block_panel(0, n_per_block=3)
        reports = run_combined(panel, [], min_community_size=4)["full"]
        assert reports  # communities exist
        assert all(r.skipped_reason == "below_min_size" for r in reports
                   if len(r.members) < 4)
        assert any(r.skipped_reason == "below_min_size" for r in reports)

    def test_partition_property(self):
        panel, _ = planted_two_block_panel(1)
        combined = run_combined(
            panel, [SubPeriod("half", date(2019, 4, 1), date(2019, 7, 1))])
        for sub, reports in combined.items():
            seen = [t for r in reports for t in r.members]
            assert sorted(seen) == sorted(panel.tickers)
            total = sum(len(r.members) for r in reports)
            numerators = sum(round(f * len(r.members))
                             for r in reports
                             for f in r.sector_distribution.values())
            assert total == len(panel.assets)
            assert numerators == len(panel.assets)

    def test_single_vehicle_single_community_matches_per_vehicle(self):
        # one tight hub community spanning the whole (single-vehicle) panel
        rng = np.random.default_rng(5)
        hub = rng.normal(0, 0.02, 800)
        rows = [hub] + [hub + 0.006 * rng.standard_normal(800)
                        for _ in range(5)]
        metas = [stock_meta(f"S{i}") for i in range(6)]
        panel = panel_from_returns(np.vstack(rows), metas)
        combined = run_combined(panel, [])["full"]
        assert len(combined) == 1
        per_vehicle = run_per_vehicle(panel, [])
        cell = per_vehicle[(Vehicle.STOCK, "full")]
        community_verdict = combined[0].verdict
        assert community_verdict == cell.verdict

    def test_needs_three_assets(self):
        panel = random_walk_panel(3, 2, 60)
        with pytest.raises(DataError):
            run_combined(panel, [])


def twelve_asset_run_inputs():
    return vehicle_event_panel(4, n_per_vehicle=4, event_bars=650, calm_bars=350)


ENTRY_POINTS = {f.__name__: f for f in (run_analysis, run_per_vehicle,
                                        run_combined, community_structure)}


class TestCombinedPass:
    @pytest.mark.parametrize("weights", ["unit", "similarity"])
    def test_community_structure_matches_run_analysis(self, weights, monkeypatch):
        panel, event, calm = twelve_asset_run_inputs()
        empty = SubPeriod("empty", date(2030, 1, 1), date(2030, 1, 2))
        subs = [event, empty, calm]
        monkeypatch.setenv("HERDSCAN_THREADS", "1")
        run = run_analysis(panel, subs, louvain_weights=weights)
        monkeypatch.setenv("HERDSCAN_THREADS", "2")
        structures = community_structure(panel, subs, louvain_weights=weights)
        assert tuple(structures) == run.sub_names == ("event", "empty", "calm",
                                                      "full")
        assert structures["empty"] == (None, None)
        assert run.trees["empty"] is None and run.combined["empty"] == ()
        for name, (tree, partition) in structures.items():
            assert tree == run.trees[name]
            reported = {t: r.community_id for r in run.combined[name]
                        for t in r.members}
            assert (dict(partition.assignment) if partition else {}) == reported

    @pytest.mark.parametrize("weights", ["unit", "similarity"])
    @pytest.mark.parametrize("make_panel", [
        lambda seed: vehicle_event_panel(seed)[0],
        lambda seed: planted_two_block_panel(seed)[0],
        lambda seed: random_walk_panel(seed, 80, 600),
    ], ids=["vehicle_event", "planted_two_block", "random_walk_80"])
    def test_every_community_connected_in_its_tree(self, make_panel, weights):
        # Louvain can return a disconnected community (Traag, Waltman & van
        # Eck 2019); inside a tree, a connected community of k members holds
        # exactly k - 1 of its edges.
        for seed in range(6):
            panel = make_panel(seed)
            first, last = (d.item() for d in panel.grid[[0, -1]].astype("datetime64[D]"))
            subs = [SubPeriod("early", first, first + (last - first) / 2)]
            structures = community_structure(panel, subs, louvain_weights=weights)
            for name, (tree, partition) in structures.items():
                for members in map(set, partition.communities):
                    inside = sum(e.a in members and e.b in members for e in tree.edges)
                    assert inside == len(members) - 1, (seed, name, sorted(members))

    @pytest.mark.parametrize("entry", ["run_analysis", "run_combined"])
    def test_min_community_size_below_two_rejected(self, entry):
        panel, event, calm = twelve_asset_run_inputs()
        with pytest.raises(ConfigError, match="min_community_size"):
            ENTRY_POINTS[entry](panel, [event, calm], min_community_size=1)

    @pytest.mark.parametrize("entry", ["run_analysis", "run_combined",
                                       "community_structure"])
    def test_unknown_louvain_weights_rejected_before_any_work(self, entry,
                                                              monkeypatch):
        panel, event, calm = twelve_asset_run_inputs()

        def no_work(*args, **kwargs):
            raise AssertionError("analysis ran before the weighting was checked")

        for name in ("slice_panel", "log_returns", "fit_csad_basic"):
            monkeypatch.setattr(pipeline, name, no_work)
        with pytest.raises(ConfigError, match="louvain_weights"):
            ENTRY_POINTS[entry](panel, [event, calm], louvain_weights="bogus")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("names", [("a b", "a_b"), ("calm", "calm"), ("full",)],
                             ids=["same_file_name", "same_name", "full"])
    def test_subperiods_sharing_report_files_rejected(self, entry, names):
        # emit_report would write their report files over each other
        panel, event, _ = twelve_asset_run_inputs()
        subs = [SubPeriod(name, event.start, event.end) for name in names]
        expected = "'a b' and 'a_b'" if names == ("a b", "a_b") else names[-1]
        with pytest.raises(ConfigError, match=expected):
            ENTRY_POINTS[entry](panel, subs)


class TestBetaReports:
    def test_equal_weight_default(self):
        panel, _, _ = vehicle_event_panel(1)
        reports = compute_beta_reports(panel)
        assert set(reports) == {Vehicle.CRYPTO, Vehicle.STOCK, Vehicle.US_ETF}
        for report in reports.values():
            assert report.proxy == "equal-weight market"
            assert report.rmse >= report.mae - 1e-12

    def test_ticker_proxy(self):
        panel, _, _ = vehicle_event_panel(2)
        reports = compute_beta_reports(panel, proxy="S00")
        assert reports[Vehicle.STOCK].proxy == "S00"
        assert reports[Vehicle.STOCK].betas["S00"] == pytest.approx(1.0,
                                                                    abs=1e-12)

    def test_unknown_proxy(self):
        panel, _, _ = vehicle_event_panel(3)
        with pytest.raises(ConfigError):
            compute_beta_reports(panel, proxy="NOPE")

    def test_followers_track_their_hub(self):
        panel, truth = planted_two_block_panel(2)
        reports = compute_beta_reports(panel, proxy="A00")
        betas = reports[Vehicle.STOCK].betas
        for follower in truth["A"][1:]:
            assert betas[follower] == pytest.approx(1.0, abs=0.1)


class TestEmitReport:
    @pytest.fixture
    def small_run(self):
        panel, event, calm = vehicle_event_panel(4, n_per_vehicle=4,
                                                 event_bars=650,
                                                 calm_bars=350)
        return run_analysis(panel, [event, calm])

    def test_file_set_and_schema(self, small_run, tmp_path):
        files = emit_report(small_run, tmp_path)
        names = {f.name for f in files}
        assert "run.json" in names and "verdicts.csv" in names
        for sub in ("event", "calm", "full"):
            assert f"communities_{sub}.csv" in names
            assert f"mst_{sub}.csv" in names
            assert f"plotdata_{sub}.csv" in names
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["schema_version"] == 1
        assert set(doc) == {"schema_version", "config", "per_vehicle",
                            "combined", "betas", "timings"}
        assert doc["timings"] is None
        assert set(doc["combined"]) == {"event", "calm", "full"}
        assert doc["config"]["digest"] == small_run.config_digest

    def test_byte_determinism_same_run(self, small_run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_report(small_run, a)
        emit_report(small_run, b)
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_byte_determinism_fresh_analysis(self, tmp_path):
        panel, event, calm = vehicle_event_panel(4, n_per_vehicle=4,
                                                 event_bars=650,
                                                 calm_bars=350)
        out = []
        for sub_dir in ("a", "b"):
            run = run_analysis(panel, [event, calm])
            emit_report(run, tmp_path / sub_dir)
            out.append(tmp_path / sub_dir)
        for f in sorted(out[0].iterdir()):
            assert f.read_bytes() == (out[1] / f.name).read_bytes()

    def test_byte_determinism_across_blas_thread_counts(self, tmp_path):
        # OpenBLAS splits a ddot of more than 10 000 elements across its
        # threads, so the full period needs more bars than that; the fits
        # and betas of that period must not depend on how it is split.
        script = (
            "import sys\n"
            "from generators import vehicle_event_panel\n"
            "from herdscan.pipeline import emit_report, run_analysis\n"
            "panel, event, calm = vehicle_event_panel(\n"
            "    11, n_per_vehicle=4, event_bars=9000, calm_bars=5000)\n"
            "for hac in (False, True):\n"
            "    run = run_analysis(panel, [event, calm], hac=hac)\n"
            "    emit_report(run, f'{sys.argv[1]}/hac_{hac}')\n"
        )
        src = Path(herdscan.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                           env=env, check=True, timeout=600)
        one, two = tmp_path / "1", tmp_path / "2"
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert len(files) == 2 * 11  # run.json, verdicts.csv, 3 x 3 per period
        for f in files:
            assert (one / f).read_bytes() == (two / f).read_bytes(), f

    def test_include_timings(self, small_run, tmp_path):
        emit_report(small_run, tmp_path, include_timings=True)
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["timings"] is not None
        assert "total" in doc["timings"]

    def test_empty_subperiod_list_yields_full_only(self, tmp_path):
        panel, _, _ = vehicle_event_panel(5, n_per_vehicle=4,
                                          event_bars=650, calm_bars=350)
        run = run_analysis(panel, [])
        emit_report(run, tmp_path)
        doc = json.loads((tmp_path / "run.json").read_text())
        assert list(doc["combined"]) == ["full"]
        assert run.sub_names == ("full",)

    def test_skipped_community_row(self, tmp_path):
        panel, _ = planted_two_block_panel(0, n_per_block=3)
        run = run_analysis(panel, [])
        emit_report(run, tmp_path)
        lines = (tmp_path / "communities_full.csv").read_text().splitlines()
        header = lines[0].split(",")
        skip_col = header.index("skipped_reason")
        beta_col = header.index("beta2")
        skipped_rows = [ln.split(",") for ln in lines[1:]
                        if ln.split(",")[skip_col] == "below_min_size"]
        assert skipped_rows
        assert all(row[beta_col] == "" for row in skipped_rows)

    def test_mst_edge_count(self, small_run, tmp_path):
        emit_report(small_run, tmp_path)
        lines = (tmp_path / "mst_full.csv").read_text().splitlines()
        assert len(lines) - 1 == 12 - 1  # n-1 edges for 12 assets

    def test_unwritable_target_is_io_failure(self, small_run, tmp_path):
        from herdscan.errors import IoFailure
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        with pytest.raises(IoFailure):
            emit_report(small_run, blocker / "out")


class TestLoadPanel:
    def test_roundtrip_from_csv_dir(self, tmp_path):
        panel0 = random_walk_panel(6, 3, 60)
        for i, ticker in enumerate(panel0.tickers):
            rows = [f"{str(t).replace('T', ' ')[:16]},{p:.8f}"
                    for t, p in zip(panel0.grid, panel0.prices[i])]
            (tmp_path / f"{ticker}.csv").write_text("\n".join(rows) + "\n")
        sector_map = {t: stock_meta(t) for t in panel0.tickers}
        panel, decisions = load_panel(tmp_path, sector_map)
        assert panel.tickers == panel0.tickers
        assert panel.grid.tolist() == panel0.grid.tolist()
        np.testing.assert_allclose(panel.prices, panel0.prices, rtol=1e-7)
        assert all(d.accepted for d in decisions.values())

    def test_unmapped_ticker_is_config_error(self, tmp_path):
        (tmp_path / "zzz.csv").write_text("2019-04-01 09:30,1.0\n")
        with pytest.raises(ConfigError):
            load_panel(tmp_path, {})

    def test_empty_dir_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_panel(tmp_path, {})


class TestThreadCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HERDSCAN_THREADS", "3")
        assert thread_cap() == 3

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("HERDSCAN_THREADS", raising=False)
        assert thread_cap() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["zero", "", "0", "-1"])
    def test_invalid_env(self, monkeypatch, raw):
        monkeypatch.setenv("HERDSCAN_THREADS", raw)
        with pytest.raises(ConfigError, match="HERDSCAN_THREADS"):
            thread_cap()

    def test_parallel_matches_serial(self, monkeypatch, tmp_path):
        panel, event, calm = vehicle_event_panel(6, n_per_vehicle=4,
                                                 event_bars=650,
                                                 calm_bars=350)
        pools = []
        pool_class = pipeline.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(pool_class(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", counting_pool)
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("HERDSCAN_THREADS", threads)
            runs[threads] = run_analysis(panel, [event, calm])
            emit_report(runs[threads], tmp_path / threads)
            # one pool each for the per-vehicle and the combined pass
            assert len(pools) == (0 if threads == "1" else 2)
        assert runs["1"].per_vehicle == runs["2"].per_vehicle
        one, two = tmp_path / "1", tmp_path / "2"
        files = sorted(p.name for p in one.iterdir())
        assert files == sorted(p.name for p in two.iterdir())
        assert len(files) == 2 + 3 * 3  # run.json, verdicts.csv, 3 per period
        for name in files:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


class TestFullSubperiod:
    def test_spans_grid(self):
        panel = random_walk_panel(8, 3, 60)
        sub = full_subperiod(panel)
        assert sub.name == "full"
        assert sub.start == panel.grid[0].astype("datetime64[D]").item()
        assert sub.end == panel.grid[-1].astype("datetime64[D]").item()
