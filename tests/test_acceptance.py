"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance and time budget
and prints a single pass line (run with ``pytest -s`` to see them inline).
Oracle implementations live in oracles.py and share no code with the
package. Synthetic generators with known ground truth live in
generators.py.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from herdscan.community import louvain
from herdscan.econometrics import fit_csad_basic, fit_csad_updown, ols, verdict
from herdscan.graph import mst, pearson_matrix, to_distance
from herdscan.ingest import read_sector_map, read_subperiods
from herdscan.pipeline import emit_report, load_panel, run_analysis, run_combined
from herdscan.returns import csad, log_returns
from herdscan.data import sector_map_path, subperiods_path

from generators import (
    clique_block_graph,
    herding_market,
    intraday_grid,
    panel_from_returns,
    planted_two_block_panel,
    regime_market,
    stock_meta,
)
from oracles import (
    best_partition,
    min_spanning_weight,
    normal_equations_ols,
    rand_index,
)

from test_community import adjacency_matrix, graph as int_graph


def _report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    extra = f", {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): PASS "
          f"({elapsed:.2f}s{extra})")


def test_criterion_1_ols_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k + 2, 201))
        X = rng.normal(size=(n, k))
        if k > 1:
            X[:, 0] = 1.0
        y = X @ rng.normal(size=k) + rng.normal(size=n)
        fit = ols(X, y)
        np.testing.assert_allclose(fit.coefficients, normal_equations_ols(X, y),
                                   rtol=1e-8, atol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "ols oracle equivalence", elapsed, "1000 systems")


def test_criterion_2_mst_bruteforce_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        dist = rng.uniform(0.0, 2.0, (n, n))
        dist = (dist + dist.T) / 2.0
        np.fill_diagonal(dist, 0.0)
        from herdscan.graph import DistanceMatrix
        tree = mst(DistanceMatrix(tickers=tuple(f"N{i}" for i in range(n)),
                                  values=dist))
        assert tree.total_weight == pytest.approx(min_spanning_weight(dist),
                                                  abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, "mst bruteforce equivalence", elapsed, "1000 graphs")


def barbell_graph():
    return int_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                         (2, 3)])


def two_clique_graph():
    block = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return int_graph(8, block + [(i + 4, j + 4) for i, j in block] + [(3, 4)])


def test_criterion_3_louvain_near_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(500):
        g = clique_block_graph(rng)
        part = louvain(g)
        q_opt, _ = best_partition(adjacency_matrix(g))
        assert part.modularity >= 0.98 * q_opt - 1e-12
    for fixture in (barbell_graph(), two_clique_graph()):
        part = louvain(fixture)
        q_opt, _ = best_partition(adjacency_matrix(fixture))
        assert part.modularity == pytest.approx(q_opt, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "louvain near-optimality", elapsed,
            "500 graphs + exact fixtures")


def test_criterion_4_modularity_phase_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    corpus = [clique_block_graph(rng) for _ in range(500)]
    corpus += [barbell_graph(), two_clique_graph()]
    for g in corpus:
        record = []
        louvain(g, record=record)
        m0 = record[0][2]
        last_q = -np.inf
        for stage, q, m in record:
            assert m == pytest.approx(m0, abs=1e-12)
            if stage == "local_move":
                assert q >= last_q - 1e-12
                last_q = q
            elif stage == "aggregate":
                assert q == pytest.approx(last_q, abs=1e-9)
    elapsed = time.perf_counter() - t0
    _report(4, "modularity phase invariants", elapsed,
            f"{len(corpus)} louvain runs")


def test_criterion_5_herding_sensitivity_and_size():
    t0 = time.perf_counter()
    power_hits = 0
    for seed in range(200):
        fit = fit_csad_basic(herding_market(seed, beta2=-3.0))
        power_hits += verdict(fit).herding_overall
    size_hits = 0
    for seed in range(200):
        fit = fit_csad_basic(herding_market(10_000 + seed, beta2=0.0))
        size_hits += verdict(fit).herding_overall
    elapsed = time.perf_counter() - t0
    assert power_hits >= 190, f"power {power_hits}/200"
    assert size_hits <= 20, f"size {size_hits}/200"
    assert elapsed < 30.0
    _report(5, "herding sensitivity/specificity", elapsed,
            f"power {power_hits}/200, size {size_hits}/200")


def test_criterion_6_up_down_regime_isolation():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(200):
        cs = regime_market(seed)
        v = verdict(fit_csad_basic(cs), fit_csad_updown(cs))
        hits += v.herding_down and not v.herding_up
    elapsed = time.perf_counter() - t0
    assert hits >= 190, f"isolation {hits}/200"
    _report(6, "up/down regime isolation", elapsed, f"{hits}/200")


def test_criterion_7_planted_partition_recovery():
    t0 = time.perf_counter()
    recovered = 0
    verdicts_ok = 0
    for seed in range(100):
        panel, truth = planted_two_block_panel(seed)
        reports = run_combined(panel, [], louvain_weights="similarity")["full"]
        membership = {t: r.community_id for r in reports for t in r.members}
        found = np.array([membership[t] for t in truth["A"] + truth["B"]])
        planted = np.array([0] * 10 + [1] * 10)
        if rand_index(found, planted) == 1.0:
            recovered += 1
            by_block = {r.members[0][0]: r for r in reports}
            if (by_block["A"].verdict.herding_any
                    and not by_block["B"].verdict.herding_any):
                verdicts_ok += 1
    elapsed = time.perf_counter() - t0
    assert recovered >= 95, f"rand=1.0 in {recovered}/100"
    assert verdicts_ok >= 95, f"verdict match in {verdicts_ok}/100"
    _report(7, "planted-partition recovery", elapsed,
            f"rand {recovered}/100, verdicts {verdicts_ok}/100")


def test_criterion_8_structural_checks(big_panel):
    t0 = time.perf_counter()
    tree = mst(to_distance(pearson_matrix(log_returns(big_panel))))
    assert len(tree.nodes) == 222
    assert len(tree.edges) == 221
    subs = read_subperiods(subperiods_path())
    run = run_analysis(big_panel, subs)
    expected = {"Pre-Covid-19", "Covid-19 pandemic", "Post-Covid-19",
                "Bull market", "Ukraine-Russia conflict", "full"}
    assert set(run.combined) == expected
    assert set(run.sub_names) == expected
    elapsed = time.perf_counter() - t0
    _report(8, "structural checks", elapsed,
            "222 nodes / 221 edges, 5 sub-periods + full")


def test_criterion_9_end_to_end_performance(big_csv_dir, tmp_path):
    sector_map = read_sector_map(sector_map_path())
    subs = read_subperiods(subperiods_path())
    outs = []
    for name in ("run1", "run2"):
        t0 = time.perf_counter()
        panel, _ = load_panel(big_csv_dir, sector_map)
        run = run_analysis(panel, subs)
        out = tmp_path / name
        emit_report(run, out)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        outs.append((out, elapsed))
    files0 = sorted(p.name for p in outs[0][0].iterdir())
    files1 = sorted(p.name for p in outs[1][0].iterdir())
    assert files0 == files1
    for name in files0:
        assert (outs[0][0] / name).read_bytes() == \
               (outs[1][0] / name).read_bytes()
    _report(9, "end-to-end performance", outs[0][1] + outs[1][1],
            f"runs {outs[0][1]:.1f}s / {outs[1][1]:.1f}s, "
            f"{len(files0)} files byte-identical")


def test_criterion_10_numerical_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)

    # Pearson affine invariance
    rows = rng.normal(0, 0.01, (6, 300))
    metas = [stock_meta(f"S{i}") for i in range(6)]
    from herdscan.returns import ReturnPanel
    rp = ReturnPanel(assets=tuple(metas), grid=intraday_grid(300),
                     returns=rows)
    base = pearson_matrix(rp).values
    scale = rng.uniform(0.5, 3.0, (6, 1))
    shift = rng.uniform(-0.1, 0.1, (6, 1))
    rp2 = ReturnPanel(assets=tuple(metas), grid=intraday_grid(300),
                      returns=rows * scale + shift)
    np.testing.assert_allclose(pearson_matrix(rp2).values, base, atol=1e-10)

    # distance range [0, 2]
    dm = to_distance(pearson_matrix(rp))
    assert (dm.values >= 0.0).all() and (dm.values <= 2.0).all()

    # CSAD scale invariance under price scaling
    panel_a = panel_from_returns(rows, metas)
    panel_b = panel_from_returns(rows, metas, p0=731.0)
    cs_a = csad(log_returns(panel_a))
    cs_b = csad(log_returns(panel_b))
    np.testing.assert_allclose(cs_a.csad, cs_b.csad, atol=1e-13)
    np.testing.assert_allclose(cs_a.market_return, cs_b.market_return,
                               atol=1e-13)

    # rmse >= mae on random beta sets
    from herdscan.econometrics import beta_distance_stats
    for _ in range(200):
        betas = {f"T{i}": float(b)
                 for i, b in enumerate(rng.normal(1.0, 0.5,
                                                  rng.integers(1, 40)))}
        mae, rmse = beta_distance_stats(betas)
        assert rmse >= mae - 1e-12

    # residual orthogonality
    for _ in range(100):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k + 2, 150))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        fit = ols(X, y)
        resid = y - X @ fit.coefficients
        assert np.abs(X.T @ resid).max() < 1e-8 * n * np.abs(X).max()

    elapsed = time.perf_counter() - t0
    _report(10, "numerical invariant suite", elapsed)
