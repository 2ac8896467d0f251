from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from datetime import date, datetime, timedelta, timezone
from itertools import product
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest

import herdscan
from herdscan import ingest, pipeline
from herdscan.errors import (
    ConfigError,
    DataError,
    EmptyCommunity,
    IoFailure,
    MalformedRow,
    ZeroVarianceAsset,
)
from herdscan.community import Partition
from herdscan.econometrics import HerdingVerdict, Significance
from herdscan.graph import SpanningTree, TreeEdge
from herdscan.ingest import AlignedPanel, AssetMeta, Sector, SubPeriod, Vehicle, slice_panel
from herdscan.pipeline import (
    AnalysisRun,
    CommunityReport,
    VehicleCell,
    community_structure,
    compute_beta_reports,
    emit_communities,
    emit_csad,
    emit_report,
    full_subperiod,
    load_panel,
    run_analysis,
    run_per_vehicle,
    sector_distribution,
    thread_cap,
)
from herdscan.returns import CsadSeries, csad, log_returns
from generators import (
    flat_day_panel,
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

    def test_all_vehicles_means_vehicles_present(self):
        panel = random_walk_panel(2, 4, 60)  # stocks only
        cells = run_per_vehicle(panel, [])
        assert {v for v, _ in cells} == {Vehicle.STOCK}

    @pytest.mark.parametrize("hac", [False, True])
    def test_one_slice_per_subperiod_and_no_restrict(self, hac, monkeypatch):
        # 9 assets per vehicle: below 8 rows numpy sums a C- and a
        # Fortran-ordered gather in the same order, so the cells would not
        # show which layout the vehicle rows were gathered in
        metas = ([stock_meta(f"S{i}") for i in range(9)]
                 + [etf(f"E{i}") for i in range(9)]
                 + [AssetMeta("C0", Vehicle.CRYPTO, Sector.CRYPTO)])
        panel = random_walk_panel(5, len(metas), 600, metas=metas)
        first, last = (d.item() for d in panel.grid[[0, -1]].astype("datetime64[D]"))
        mid = first + (last - first) / 2
        subs = [SubPeriod("early", first, mid),
                SubPeriod("late", mid + timedelta(days=1), last),
                SubPeriod("empty", date(2030, 1, 1), date(2030, 1, 2))]
        restrict = AlignedPanel.restrict
        slices, restricts = [], []

        def counting_slice(panel, sub):
            slices.append(sub.name)
            return slice_panel(panel, sub)

        def counting_restrict(self, tickers):
            restricts.append(tuple(tickers))
            return restrict(self, tickers)

        monkeypatch.setattr(pipeline, "slice_panel", counting_slice)
        monkeypatch.setattr(AlignedPanel, "restrict", counting_restrict)
        run = run_analysis(panel, subs, hac=hac)
        assert sorted(slices) == ["early", "empty", "full", "late"]
        assert restricts == []
        assert len(run.per_vehicle) == 3 * (len(subs) + 1)

        # Reference: restrict, slice and take returns per (vehicle, sub-period).
        for (vehicle, sub_name), cell in run.per_vehicle.items():
            tickers = [a.ticker for a in panel.assets if a.vehicle is vehicle]
            sub = next((s for s in subs if s.name == sub_name),
                       full_subperiod(panel))
            if vehicle is Vehicle.CRYPTO:
                expected = (None, "too_few_assets", 1, 0)
            elif sub_name == "empty":
                expected = (None, "empty_slice", 9, 0)
            else:
                cs = csad(log_returns(slice_panel(restrict(panel, tickers), sub)))
                expected = (*pipeline._herding(cs, hac=hac), 9, len(cs))
            # repr tells every float bit apart (-0.0 and NaN too)
            assert repr(cell) == repr(pipeline.VehicleCell(vehicle, sub_name, *expected))


class TestRunCombined:
    def test_planted_blocks_recovered_with_verdicts(self):
        hits = 0
        for seed in range(5):
            panel, truth = planted_two_block_panel(seed)
            # similarity weighting keeps the cross-block bridge weak; on the
            # unit-weight tree the bridge pair itself is the modularity optimum
            run = run_analysis(panel, [], louvain_weights="similarity")
            reports = run.combined["full"]
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
        reports = run_analysis(panel, [], louvain_weights="similarity").combined["full"]
        for r in reports:
            mix = r.sector_distribution
            if r.members[0].startswith("A"):
                assert mix == {Sector.ENERGY: 1.0}
            else:
                assert mix == {Sector.HEALTHCARE: 1.0}

    def test_below_min_size_skipped(self):
        panel, _ = planted_two_block_panel(0, n_per_block=3)
        reports = run_analysis(panel, [], min_community_size=4).combined["full"]
        assert reports  # communities exist
        assert all(r.skipped_reason == "below_min_size" for r in reports
                   if len(r.members) < 4)
        assert any(r.skipped_reason == "below_min_size" for r in reports)

    def test_partition_property(self):
        panel, _ = planted_two_block_panel(1)
        combined = run_analysis(
            panel, [SubPeriod("half", date(2019, 4, 1), date(2019, 7, 1))]).combined
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
        combined = run_analysis(panel, []).combined["full"]
        assert len(combined) == 1
        per_vehicle = run_per_vehicle(panel, [])
        cell = per_vehicle[(Vehicle.STOCK, "full")]
        community_verdict = combined[0].verdict
        assert community_verdict == cell.verdict


def twelve_asset_run_inputs():
    return vehicle_event_panel(4, n_per_vehicle=4, event_bars=650, calm_bars=350)


ENTRY_POINTS = {f.__name__: f for f in (run_analysis, run_per_vehicle,
                                        community_structure)}


class TestCombinedPass:
    @pytest.mark.parametrize("weights", ["unit", "similarity"])
    def test_community_structure_matches_run_analysis(self, weights):
        # each entry point runs its own loop over the sub-periods; two assets
        # make one community, skipped as below the minimum size
        twelve, event, calm = twelve_asset_run_inputs()
        empty = SubPeriod("empty", date(2030, 1, 1), date(2030, 1, 2))
        subs = [event, empty, calm]
        for panel, hac in product((twelve, twelve.restrict(twelve.tickers[:2])),
                                  (False, True)):
            structures = community_structure(panel, subs, louvain_weights=weights)
            run = run_analysis(panel, subs, louvain_weights=weights, hac=hac)
            assert (repr(run_per_vehicle(panel, subs, hac=hac))
                    == repr(run.per_vehicle))
            assert tuple(structures) == tuple(run.combined) == ("event", "empty",
                                                                "calm", "full")
            assert structures["empty"] == (None, None)
            assert run.trees["empty"] is None and run.combined["empty"] == ()
            for name, (tree, partition) in structures.items():
                assert tree == run.trees[name]
                reported = {t: r.community_id for r in run.combined[name]
                            for t in r.members}
                assert (dict(partition.assignment) if partition else {}) == reported
            if panel is not twelve:
                assert ([(r.members, r.skipped_reason) for r in run.combined["full"]]
                        == [(panel.tickers, "below_min_size")])

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

    def test_flat_asset_error_names_the_period(self):
        # the vehicle fit of the flat day works; its correlations cannot
        panel, flat = flat_day_panel()
        cell = run_per_vehicle(panel, [flat])[Vehicle.STOCK, "flat"]
        assert cell.skipped_reason is None and cell.verdict is not None
        with pytest.raises(ZeroVarianceAsset) as err:
            run_analysis(panel, [flat])
        assert err.value.ticker == "S003"
        assert str(err.value) == ("asset S003 has (near-)zero return variance"
                                  " from 2019-04-03T10:00:00 to 2019-04-03T15:30:00")

    @pytest.mark.parametrize("entry", ["run_analysis"])
    def test_min_community_size_below_two_rejected(self, entry):
        panel, event, calm = twelve_asset_run_inputs()
        with pytest.raises(ConfigError, match="min_community_size"):
            ENTRY_POINTS[entry](panel, [event, calm], min_community_size=1)

    @pytest.mark.parametrize("vehicle,proxy", [(None, "NOPE"),
                                               (Vehicle.CRYPTO, "E00")])
    def test_unknown_beta_proxy_rejected_before_any_slice(self, vehicle, proxy,
                                                          monkeypatch):
        panel, event, calm = twelve_asset_run_inputs()
        if vehicle is not None:  # the proxy exists, but not in this vehicle
            assert proxy in panel.tickers
            panel = panel.restrict([a.ticker for a in panel.assets
                                    if a.vehicle is vehicle])
        calls = []
        real_slice = pipeline.slice_panel

        def counting_slice(*args, **kwargs):
            calls.append(args[1])
            return real_slice(*args, **kwargs)

        monkeypatch.setattr(pipeline, "slice_panel", counting_slice)
        with pytest.raises(ConfigError, match=f"beta proxy '{proxy}'"):
            run_analysis(panel, [event, calm], beta_proxy=proxy)
        assert calls == []

    @pytest.mark.parametrize("entry", ["run_analysis", "community_structure"])
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
    @pytest.mark.parametrize("names", [("a b", "a_b"), ("calm", "calm"), ("full",),
                                       ("Pre", "pre"), ("Full",)],
                             ids=["same_file_name", "same_name", "full",
                                  "name_case", "full_case"])
    def test_subperiods_sharing_report_files_rejected(self, entry, names):
        # emit_report would write their report files over each other, on a
        # case-insensitive file system also where the names differ in case
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


#: The run.json config block of ``TestEmitReport.small_run``.
CONFIG_BLOCK = {
    "schema_version": 1,
    "n_assets": 12,
    "n_timestamps": 1001,
    "first_timestamp": "2019-04-01T09:30:00",
    "last_timestamp": "2019-07-16T15:30:00",
    "subperiods": [{"name": "event", "start": "2019-04-01", "end": "2019-06-10"},
                   {"name": "calm", "start": "2019-06-10", "end": "2019-07-16"}],
    "vehicles": "all",
    "min_community_size": 4,
    "louvain_weights": "unit",
    "beta_proxy": "equal-weight market",
    "min_obs": 10,
    "min_regime": 5,
    "hac": False,
    "digest": "8c59d25809ba176009834da30bfd0bba2e7d9f11d422af6d3cd55cc3d53976ab",
}


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
        # From 100 assets the correlation product is split too, and about
        # 250 of the 150-asset panel's correlations differ in the last bit
        # between one and two threads, enough to move its tree's digits.
        script = (
            "import sys\n"
            "from generators import random_walk_panel, vehicle_event_panel\n"
            "from herdscan.pipeline import emit_report, run_analysis\n"
            "panel, event, calm = vehicle_event_panel(\n"
            "    11, n_per_vehicle=4, event_bars=9000, calm_bars=5000)\n"
            "for hac in (False, True):\n"
            "    run = run_analysis(panel, [event, calm], hac=hac)\n"
            "    emit_report(run, f'{sys.argv[1]}/hac_{hac}')\n"
            "emit_report(run_analysis(random_walk_panel(3, 150, 2600), []),\n"
            "            f'{sys.argv[1]}/wide')\n"
        )
        src = Path(herdscan.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                           env=env, check=True, timeout=600)
        one, two = tmp_path / "1", tmp_path / "2"
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        # run.json, verdicts.csv, 3 x 3 per period; the wide run has no sub-period
        assert len(files) == 2 * 11 + 5
        for f in files:
            assert (one / f).read_bytes() == (two / f).read_bytes(), f

    def test_byte_determinism_across_hash_seeds(self, tmp_path):
        # Louvain keeps its state in dicts keyed by tickers and community
        # ids; no report may depend on the order a seed gives their hashes
        script = (
            "import sys\n"
            "from generators import random_walk_panel\n"
            "from herdscan.pipeline import (community_structure,\n"
            "    emit_communities, emit_report, run_analysis)\n"
            "panel = random_walk_panel(5, 60, 400)\n"
            "emit_communities(community_structure(\n"
            "    panel, [], louvain_weights='similarity'),\n"
            "    f'{sys.argv[1]}/communities')\n"
            "emit_report(run_analysis(panel, [], louvain_weights='similarity'),\n"
            "            f'{sys.argv[1]}/analysis')\n"
        )
        src = Path(herdscan.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", script, str(tmp_path / seed)],
                           env=env, check=True, timeout=600)
        zero, one = tmp_path / "0", tmp_path / "1"
        files = sorted(p.relative_to(zero) for p in zero.rglob("*") if p.is_file())
        assert {f.parts[0] for f in files} == {"communities", "analysis"}
        for f in files:
            assert (zero / f).read_bytes() == (one / f).read_bytes(), f

    def test_config_block(self, small_run, tmp_path):
        # every key goes into config_digest; a changed value changes the digest
        emit_report(small_run, tmp_path)
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"] == CONFIG_BLOCK
        assert doc["timings"] is None

    def test_empty_subperiod_list_yields_full_only(self, tmp_path):
        panel, _, _ = vehicle_event_panel(5, n_per_vehicle=4,
                                          event_bars=650, calm_bars=350)
        run = run_analysis(panel, [])
        emit_report(run, tmp_path)
        doc = json.loads((tmp_path / "run.json").read_text())
        assert list(doc["combined"]) == ["full"]
        assert tuple(run.combined) == ("full",)

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
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        with pytest.raises(IoFailure):
            emit_report(small_run, blocker / "out")

    def test_failed_write_leaves_no_earlier_report(self, tmp_path):
        # the earlier run's files go before the first write, so a write that
        # fails part-way leaves only the new run's files written so far
        panel, event, calm = vehicle_event_panel(4, n_per_vehicle=4,
                                                 event_bars=650,
                                                 calm_bars=350)
        emit_report(run_analysis(panel, [event, calm]), tmp_path)
        (tmp_path / "mst_spike.csv").mkdir()
        spike = SubPeriod("spike", event.start, event.end)
        with pytest.raises(IoFailure, match="mst_spike.csv"):
            emit_report(run_analysis(panel, [spike]), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
            "communities_spike.csv", "plotdata_spike.csv", "run.json",
            "verdicts.csv"]


#: Hand-built verdicts for ``TestReportTables``: one with all three herding
#: flags, one without a split fit.
ALL_FLAGS = HerdingVerdict(-0.5, Significance.AT_1PCT, -0.25, Significance.AT_5PCT,
                           -0.125, Significance.AT_10PCT, True, True, True, True,
                           t_beta2=-3.5, t_gamma2=-2.25, t_gamma3=-1.75)
NO_SPLIT = HerdingVerdict(0.1 + 0.2, Significance.NOT_SIGNIFICANT, None,
                          Significance.NOT_SIGNIFICANT, None,
                          Significance.NOT_SIGNIFICANT, False, False, False, False,
                          t_beta2=0.75)
#: A 3-node tree; the numpy weight must be spelled as a plain float.
TREE = SpanningTree(("AAA", "BBB", "CCC"),
                    (TreeEdge("AAA", "BBB", 1.0), TreeEdge("BBB", "CCC", np.float64(0.5))),
                    1.5)
VERDICT_HEADER = ("beta2,beta2_sig,gamma2,gamma2_sig,gamma3,gamma3_sig,"
                  "herding_overall,herding_up,herding_down,herding_any")
COMMUNITIES_HEADER = (
    f"community_id,size,members,{VERDICT_HEADER},skipped_reason,"
    "sector_CommunicationServices,sector_ConsumerDiscretionary,"
    "sector_ConsumerStaples,sector_Crypto,sector_Energy,sector_Financials,"
    "sector_Healthcare,sector_Industrials,sector_InformationTechnology,"
    "sector_Materials,sector_RealEstate,sector_UsEtf,sector_Utilities\n")
MST_TEXT = ("source,target,correlation,distance\n"
            "AAA,BBB,0.5,1.0\n"
            "BBB,CCC,0.875,0.5\n")


class TestReportTables:
    """The exact text of every CSV table, from hand-built results: no fitting."""

    def test_emit_report(self, tmp_path):
        cells = [VehicleCell(Vehicle.STOCK, "pre", ALL_FLAGS, None, 4, 120),
                 VehicleCell(Vehicle.STOCK, "full", NO_SPLIT, None, 4, 240),
                 VehicleCell(Vehicle.CRYPTO, "pre", None, "too_few_assets", 1, 0),
                 VehicleCell(Vehicle.CRYPTO, "full", None, "too_few_assets", 1, 0)]
        run = AnalysisRun(
            config={}, config_digest="0",
            per_vehicle={(c.vehicle, c.sub_period): c for c in cells},
            combined={
                "pre": (CommunityReport("pre", 0, ("AAA", "BBB", "CCC", "DDD"), ALL_FLAGS,
                                        {Sector.ENERGY: 0.75, Sector.FINANCIALS: 0.25}),
                        CommunityReport("pre", 1, ("BTC",), None, {Sector.CRYPTO: 1.0},
                                        "below_min_size")),
                "full": (CommunityReport("full", 0, ("AAA", "BBB", "BTC", "CCC", "DDD"),
                                         NO_SPLIT, {Sector.CRYPTO: 0.2, Sector.ENERGY: 0.6,
                                                    Sector.FINANCIALS: 0.2}),)},
            trees={"pre": TREE, "full": None}, beta_reports={})
        expected = {
            "verdicts.csv":
                f"vehicle,sub_period,n_assets,n_obs,{VERDICT_HEADER},skipped_reason\n"
                "crypto,pre,1,0,,,,,,,,,,,too_few_assets\n"
                "crypto,full,1,0,,,,,,,,,,,too_few_assets\n"
                "stock,pre,4,120,-0.5,1%,-0.25,5%,-0.125,10%,true,true,true,true,\n"
                "stock,full,4,240,0.30000000000000004,ns,,ns,,ns,"
                "false,false,false,false,\n",
            "communities_pre.csv": COMMUNITIES_HEADER
                + "0,4,AAA;BBB;CCC;DDD,-0.5,1%,-0.25,5%,-0.125,10%,true,true,true,true,,"
                "0.0,0.0,0.0,0.0,0.75,0.25,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
                "1,1,BTC,,,,,,,,,,,below_min_size,"
                "0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n",
            "plotdata_pre.csv": "community_id,csad_abs_t,up_abs_t,down_abs_t\n"
                                "0,3.5,2.25,1.75\n"
                                "1,0.0,0.0,0.0\n",
            "mst_pre.csv": MST_TEXT,
            "communities_full.csv": COMMUNITIES_HEADER
                + "0,5,AAA;BBB;BTC;CCC;DDD,0.30000000000000004,ns,,ns,,ns,"
                "false,false,false,false,,"
                "0.0,0.0,0.0,0.2,0.6,0.2,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n",
            "plotdata_full.csv": "community_id,csad_abs_t,up_abs_t,down_abs_t\n"
                                 "0,0.0,0.0,0.0\n",
            "mst_full.csv": "source,target,correlation,distance\n",
        }
        paths = emit_report(run, tmp_path)
        assert [p.name for p in paths] == ["run.json", *expected]
        assert {p.name: p.read_bytes().decode() for p in paths[1:]} == expected

    def test_emit_communities(self, tmp_path):
        partition = Partition({"BBB": 1, "AAA": 0, "CCC": 0},
                              (("AAA", "CCC"), ("BBB",)), 0.0)
        paths = emit_communities({"pre": (TREE, partition), "full": (None, None)},
                                 tmp_path)
        assert {p.name: p.read_bytes().decode() for p in paths} == {
            "partition_full.csv": "ticker,community_id\n",
            "mst_full.csv": "source,target,correlation,distance\n",
            "partition_pre.csv": "ticker,community_id\nAAA,0\nBBB,1\nCCC,0\n",
            "mst_pre.csv": MST_TEXT,
        }

    def test_emit_csad(self, tmp_path):
        series = CsadSeries(np.array(["2019-04-01T09:30", "2019-04-01T10:00"],
                                     dtype="datetime64[s]"),
                            [0.5, -0.25], [0.125, 1 / 3])
        [path] = emit_csad(series, tmp_path)
        assert path.read_bytes().decode() == ("timestamp,market_return,csad\n"
                                              "2019-04-01T09:30:00,0.5,0.125\n"
                                              "2019-04-01T10:00:00,-0.25,"
                                              "0.3333333333333333\n")


def write_bar_files(panel, directory, extra_rows=()):
    for i, ticker in enumerate(panel.tickers):
        rows = [f"{str(t).replace('T', ' ')[:16]},{p:.8f}"
                for t, p in zip(panel.grid, panel.prices[i])]
        (directory / f"{ticker}.csv").write_text("\n".join([*rows, *extra_rows]) + "\n")


class TestLoadPanel:
    def test_roundtrip_from_csv_dir(self, tmp_path):
        panel0 = random_walk_panel(6, 3, 60)
        write_bar_files(panel0, tmp_path)
        sector_map = {t: stock_meta(t) for t in panel0.tickers}
        panel, decisions = load_panel(tmp_path, sector_map)
        assert panel.tickers == panel0.tickers
        assert panel.grid.tolist() == panel0.grid.tolist()
        np.testing.assert_allclose(panel.prices, panel0.prices, rtol=1e-7)
        assert all(d.accepted for d in decisions.values())

    def test_bars_at_the_window_edges(self, tmp_path):
        days = ["1901-07-01", "1969-12-31", "2019-04-01"]
        edges = ["09:29:59", "09:30:00", "15:59:59", "16:00:00"]
        stamps = [f"{d} {t}" for d, t in product(days, edges)]
        rows = [f"{stamp},{i + 1}.5" for i, stamp in enumerate(stamps)]
        for ticker in ("AAA", "BBB"):
            (tmp_path / f"{ticker}.csv").write_text("\n".join(rows) + "\n")
        panel, _ = load_panel(tmp_path, {t: stock_meta(t) for t in ("AAA", "BBB")})
        assert [str(t).replace("T", " ") for t in panel.grid] == [
            stamp for stamp in stamps if stamp.endswith(("09:30:00", "15:59:59"))]
        assert panel.prices.tolist() == [[2.5, 3.5, 6.5, 7.5, 10.5, 11.5]] * 2
        assert not panel.fills.any()

    def test_two_files_for_one_ticker_fail_before_parsing(self, tmp_path,
                                                          monkeypatch):
        panel0 = random_walk_panel(8, 3, 60)
        write_bar_files(panel0, tmp_path)
        (tmp_path / "s001.csv").write_text((tmp_path / "S001.csv").read_text())
        sector_map = {t: stock_meta(t) for t in panel0.tickers}

        def no_parse(*args, **kwargs):
            raise AssertionError("a file was parsed before the check")

        monkeypatch.setattr(pipeline, "load_bars", no_parse)
        with pytest.raises(DataError, match="S001.csv and s001.csv both name"
                                            " ticker S001"):
            load_panel(tmp_path, sector_map)

    def test_unmapped_ticker_is_config_error(self, tmp_path):
        (tmp_path / "zzz.csv").write_text("2019-04-01 09:30,1.0\n")
        with pytest.raises(ConfigError):
            load_panel(tmp_path, {})

    def test_empty_dir_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_panel(tmp_path, {})


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def pools(monkeypatch):
    """The thread pools ``pipeline`` creates while the test runs."""
    pools = []
    pool_class = pipeline.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(pool_class(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", counting_pool)
    return pools


class TestThreadCap:
    def test_default_is_two_at_most(self, monkeypatch):
        monkeypatch.delenv("HERDSCAN_THREADS", raising=False)
        assert thread_cap() == min(2, usable_cpus())

    # values that once set or were refused as the pool size change nothing
    @pytest.mark.parametrize("raw", ["3", "zero", "", "0", "-1"])
    def test_env_is_ignored(self, monkeypatch, raw):
        monkeypatch.setenv("HERDSCAN_THREADS", raw)
        assert thread_cap() == min(2, usable_cpus())

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_affinity_mask_bounds_it(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert thread_cap() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert thread_cap() == 2

    @pytest.mark.parametrize("count, cap", [(None, 1), (1, 1), (2, 2), (64, 2)])
    def test_without_affinity_counts_the_cpus(self, monkeypatch, count, cap):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert thread_cap() == cap

    def test_default_runs_serially(self, monkeypatch, pools):
        # nothing reads HERDSCAN_THREADS: the sub-period pass is serial
        panel, event, calm = vehicle_event_panel(6, n_per_vehicle=4,
                                                 event_bars=650,
                                                 calm_bars=350)
        monkeypatch.setenv("HERDSCAN_THREADS", "2")
        run = run_analysis(panel, [event, calm])
        assert tuple(run.combined) == ("event", "calm", "full")
        assert pools == []


NEW_YORK = ZoneInfo("America/New_York")


def mixed_bar_dir(directory: Path) -> dict[str, AssetMeta]:
    """Eight stock files, one of each kind ``load_panel`` meets, and their
    sector map: fast-path files, one with a header and six columns, one with
    ``\r\n`` line ends and one with ``+00:00`` stamps (both for the row
    parser), one with ``Z`` stamps, and S007 with only every tenth bar
    (rejected)."""
    panel = random_walk_panel(9, 8, 130)
    write_bar_files(panel, directory)
    utc = [datetime.fromisoformat(str(t)).replace(tzinfo=NEW_YORK)
           .astimezone(timezone.utc) for t in panel.grid]

    def rewrite(ticker, rows, newline="\n"):
        (directory / f"{ticker}.csv").write_bytes(
            "".join(row + newline for row in rows).encode("ascii"))

    def closes(ticker):
        return [f"{p:.8f}" for p in panel.prices[panel.tickers.index(ticker)]]

    lines = (directory / "S003.csv").read_text().splitlines()
    rewrite("S003", ["timestamp,open,high,low,close,volume"]
            + [f"{t},{c},{c},{c},{c},100" for t, c in (r.split(",") for r in lines)])
    rewrite("S004", (directory / "S004.csv").read_text().splitlines(), "\r\n")
    rewrite("S005", [f"{t:%Y-%m-%dT%H:%M:%S}+00:00,{c}"
                     for t, c in zip(utc, closes("S005"))])
    rewrite("S006", [f"{t:%Y-%m-%dT%H:%M:%S}Z,{c}" for t, c in zip(utc, closes("S006"))])
    rewrite("S007", (directory / "S007.csv").read_text().splitlines()[::10])
    return {t: stock_meta(t) for t in panel.tickers}


def with_cap(monkeypatch, cap: int) -> None:
    monkeypatch.setattr(pipeline, "thread_cap", lambda: cap)


class TestParsePool:
    def test_pool_size_changes_nothing(self, tmp_path, monkeypatch):
        sector_map = mixed_bar_dir(tmp_path)
        loads = []
        for cap in (1, 2, 1, 2):
            with_cap(monkeypatch, cap)
            loads.append(load_panel(tmp_path, sector_map))
        (panel, decisions), *others = loads
        assert panel.tickers == tuple(f"S00{i}" for i in range(7))
        assert [t for t, d in decisions.items() if not d.accepted] == ["S007"]
        assert not panel.fills.any()
        for other, other_decisions in others:
            assert other.tickers == panel.tickers
            assert other.grid.tobytes() == panel.grid.tobytes()
            assert other.prices.tobytes() == panel.prices.tobytes()
            assert other.fills.tobytes() == panel.fills.tobytes()
            assert other_decisions == decisions

    def test_every_kind_of_file_parses_as_alone(self, tmp_path):
        sector_map = mixed_bar_dir(tmp_path)
        panel, _ = load_panel(tmp_path, sector_map)
        for row, ticker in enumerate(panel.tickers):
            alone = ingest.load_bars(tmp_path / f"{ticker}.csv", ticker)
            assert alone.timestamps.tobytes() == panel.grid.tobytes()
            assert alone.closes.tobytes() == panel.prices[row].tobytes()

    @pytest.mark.parametrize("cap", [1, 2])
    def test_first_defect_in_name_order_is_raised(self, tmp_path, monkeypatch, cap):
        panel0 = random_walk_panel(10, 8, 60)
        write_bar_files(panel0, tmp_path)
        for ticker, line in (("S002", 3), ("S005", 7)):
            path = tmp_path / f"{ticker}.csv"
            lines = path.read_text().splitlines()
            lines[line - 1] = f"bad-{ticker},1.0"
            path.write_text("\n".join(lines) + "\n")
        sector_map = {t: stock_meta(t) for t in panel0.tickers}
        load_bars = pipeline.load_bars

        def slow_first_defect(path, ticker, *, tz):
            if ticker == "S002":  # let S005 fail first in time
                time.sleep(0.05)
            return load_bars(path, ticker, tz=tz)

        monkeypatch.setattr(pipeline, "load_bars", slow_first_defect)
        with_cap(monkeypatch, cap)
        for _ in range(3):
            with pytest.raises(MalformedRow, match="^S002.csv: .*'bad-S002'") as err:
                load_panel(tmp_path, sector_map)
            assert err.value.line_no == 3

    @pytest.mark.parametrize("cap", [1, 2])
    def test_a_failing_first_file_stops_the_parse(self, tmp_path, monkeypatch, cap):
        panel0 = random_walk_panel(11, 20, 40)
        write_bar_files(panel0, tmp_path)
        sector_map = {t: stock_meta(t) for t in panel0.tickers}
        load_bars = pipeline.load_bars
        calls = []

        def failing_first(path, ticker, *, tz):
            calls.append(ticker)
            if ticker == "S000":  # the other workers go on meanwhile
                time.sleep(0.05)
                raise DataError("first file")
            return load_bars(path, ticker, tz=tz)

        monkeypatch.setattr(pipeline, "load_bars", failing_first)
        with_cap(monkeypatch, cap)
        with pytest.raises(DataError, match="^S000.csv: first file$"):
            load_panel(tmp_path, sector_map)
        assert calls[0] == "S000"
        assert len(calls) <= 1 + 2 * cap

    @pytest.mark.parametrize("cap, n_files, workers", [(2, 3, 2), (4, 3, 3), (1, 3, 1)])
    def test_one_pool_per_load(self, tmp_path, monkeypatch, pools, cap, n_files,
                               workers):
        panel0 = random_walk_panel(12, n_files, 60)
        write_bar_files(panel0, tmp_path)
        with_cap(monkeypatch, cap)
        panel, _ = load_panel(tmp_path, {t: stock_meta(t) for t in panel0.tickers})
        assert [pool._max_workers for pool in pools] == [workers]
        run_analysis(panel, [])
        assert len(pools) == 1

    def test_default_pool_is_the_thread_cap(self, tmp_path, pools):
        panel0 = random_walk_panel(13, 4, 60)
        write_bar_files(panel0, tmp_path)
        load_panel(tmp_path, {t: stock_meta(t) for t in panel0.tickers})
        assert [pool._max_workers for pool in pools] == [min(thread_cap(), 4)]


def quarter_subperiods(panel: AlignedPanel) -> list[SubPeriod]:
    """Four sub-periods of equal trading-day counts, covering the panel."""
    days = np.unique(panel.grid.astype("datetime64[D]"))
    return [SubPeriod(f"q{i}", part[0].item(), part[-1].item())
            for i, part in enumerate(np.array_split(days, 4))]


needs_numpy_openblas = pytest.mark.skipif(
    pipeline._numpy_openblas() is None, reason="numpy bundles no OpenBLAS")


class TestOneBlasThread:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_pass_leaves_no_blas_worker_spinning(self):
        # From 100 assets np.corrcoef wakes OpenBLAS's worker thread, which
        # then spins a core for about 0.13 s; five periods of that used
        # about twice as much CPU as wall time on 2 cores.
        panel = random_walk_panel(3, 150, 2600)
        subs = quarter_subperiods(panel)
        run_analysis(panel, subs)
        time.sleep(0.3)  # let any worker woken before this test settle
        cpu, wall = time.process_time(), time.perf_counter()
        run_analysis(panel, subs)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        assert cpu <= 1.25 * wall, (cpu, wall)

    @pytest.fixture
    def blas_threads(self):
        """numpy's OpenBLAS thread count, set to 2 for the test and reset after."""
        _, get, set_ = pipeline._numpy_openblas()
        before = get()
        set_(2)
        yield get
        set_(before)

    @pytest.fixture
    def counts_in_pass(self, monkeypatch, blas_threads):
        """The thread counts ``pearson_matrix`` ran under."""
        counts = []
        pearson = pipeline.pearson_matrix

        def counting_pearson(rp):
            counts.append(blas_threads())
            return pearson(rp)

        monkeypatch.setattr(pipeline, "pearson_matrix", counting_pearson)
        return counts

    @needs_numpy_openblas
    @pytest.mark.parametrize("entry", ["run_analysis", "community_structure"])
    def test_count_restored_after_a_run(self, entry, blas_threads, counts_in_pass):
        panel = random_walk_panel(4, 6, 260)
        ENTRY_POINTS[entry](panel, quarter_subperiods(panel))
        assert counts_in_pass == [1] * 5
        assert blas_threads() == 2

    @needs_numpy_openblas
    @pytest.mark.parametrize("entry", ["run_analysis", "community_structure"])
    def test_count_restored_after_a_failed_run(self, entry, blas_threads,
                                               counts_in_pass):
        panel = random_walk_panel(4, 6, 260)
        panel.prices[2] = 50.0  # a constant price: no correlation to take
        with pytest.raises(ZeroVarianceAsset):
            ENTRY_POINTS[entry](panel, quarter_subperiods(panel))
        assert counts_in_pass == [1]
        assert blas_threads() == 2

    @needs_numpy_openblas
    def test_overlapping_passes_restore_the_count_last(self, blas_threads):
        # two analyses run from two threads: the first to end must not
        # restore the count under the other, nor the other restore a 1
        first, second = pipeline._one_blas_thread(), pipeline._one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert blas_threads() == 1
        second.__exit__(None, None, None)
        assert blas_threads() == 2

    @needs_numpy_openblas
    def test_many_threads_hold_and_restore_the_count(self, blas_threads):
        inside = []

        def hold_repeatedly():
            for _ in range(200):
                with pipeline._one_blas_thread():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold_repeatedly) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside == [1] * 1600
        assert blas_threads() == 2

    def test_binds_numpy_bundled_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        root = Path(np.__file__).resolve().parent
        bundled = (root.parent / "numpy.libs").is_dir() or (root / ".dylibs").is_dir()
        if "openblas" not in blas["name"].lower() or not bundled:
            pytest.skip(f"numpy bundles no OpenBLAS (blas: {blas['name']})")
        assert pipeline._numpy_openblas() is not None
        _, get, _ = pipeline._numpy_openblas()
        assert get() >= 1


class TestFullSubperiod:
    def test_spans_grid(self):
        panel = random_walk_panel(8, 3, 60)
        sub = full_subperiod(panel)
        assert sub.name == "full"
        assert sub.start == panel.grid[0].astype("datetime64[D]").item()
        assert sub.end == panel.grid[-1].astype("datetime64[D]").item()
