from __future__ import annotations

import numpy as np
import pytest

from herdscan.errors import DataError, ZeroVarianceAsset
from herdscan.graph import (
    CorrelationMatrix,
    DistanceMatrix,
    SpanningTree,
    TreeEdge,
    mst,
    pearson_matrix,
    to_distance,
)
from herdscan.returns import ReturnPanel

from generators import intraday_grid, stock_meta
from oracles import kruskal_tree, min_spanning_weight


def return_panel(rows, tickers=None):
    rows = np.asarray(rows, dtype=float)
    tickers = tickers or [f"S{i}" for i in range(rows.shape[0])]
    metas = [stock_meta(t) for t in tickers]
    return ReturnPanel(assets=tuple(metas), grid=intraday_grid(rows.shape[1]),
                       returns=rows)


def distance_matrix(values, tickers):
    return DistanceMatrix(tickers=tuple(tickers),
                          values=np.asarray(values, dtype=float))


class TestPearson:
    def test_identical_series(self):
        rng = np.random.default_rng(0)
        row = rng.normal(0, 0.01, 50)
        cm = pearson_matrix(return_panel([row, row.copy(), rng.normal(0, 0.01, 50)]))
        assert cm.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        rng = np.random.default_rng(1)
        row = rng.normal(0, 0.01, 50)
        cm = pearson_matrix(return_panel([row, -row]))
        assert cm.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        cm = pearson_matrix(return_panel([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]]))
        assert cm.values[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_asset_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ZeroVarianceAsset) as err:
            pearson_matrix(return_panel([rng.normal(0, 0.01, 30),
                                         np.zeros(30)], ["A", "FLAT"]))
        assert err.value.ticker == "FLAT"

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0, 0.01, (4, 60))
        base = pearson_matrix(return_panel(rows)).values
        transformed = rows * np.array([[2.0], [0.5], [3.0], [1.2]]) \
            + np.array([[0.1], [-0.2], [0.0], [0.7]])
        shifted = pearson_matrix(return_panel(transformed)).values
        np.testing.assert_allclose(shifted, base, atol=1e-10)

    def test_unit_diagonal_and_symmetry_enforced(self):
        rng = np.random.default_rng(4)
        cm = pearson_matrix(return_panel(rng.normal(0, 0.01, (5, 40))))
        assert np.array_equal(np.diag(cm.values), np.ones(5))
        assert np.array_equal(cm.values, cm.values.T)
        assert (np.abs(cm.values) <= 1.0).all()


class TestToDistance:
    def test_analytic_points(self):
        values = np.array([[1.0, 1.0, -1.0, 0.0],
                           [1.0, 1.0, 0.5, 0.0],
                           [-1.0, 0.5, 1.0, 0.0],
                           [0.0, 0.0, 0.0, 1.0]])
        cm = CorrelationMatrix(tickers=("A", "B", "C", "D"), values=values)
        dm = to_distance(cm)
        assert dm.values[0, 1] == pytest.approx(0.0, abs=1e-12)       # c=1
        assert dm.values[0, 2] == pytest.approx(2.0, abs=1e-12)       # c=-1
        assert dm.values[0, 3] == pytest.approx(np.sqrt(2), abs=1e-12)  # c=0
        assert (np.diag(dm.values) == 0).all()

    def test_monotone_decreasing_in_correlation(self):
        rng = np.random.default_rng(5)
        cs = np.sort(rng.uniform(-1, 1, 20))
        ds = np.sqrt(2 * (1 - cs))
        assert (np.diff(ds) <= 0).all()

    def test_range(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(0, 0.01, (6, 50))
        dm = to_distance(pearson_matrix(return_panel(rows)))
        assert (dm.values >= 0).all() and (dm.values <= 2.0).all()

    def test_triangle_inequality_on_sampled_triples(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(0, 0.01, (10, 120))
        d = to_distance(pearson_matrix(return_panel(rows))).values
        for _ in range(300):
            i, j, k = rng.choice(10, 3, replace=False)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestMst:
    def test_three_node_bruteforce(self):
        # AB < BC < AC; the 3 candidate trees weigh 1.5, 2.0, 2.5
        values = np.array([[0.0, 0.5, 1.5],
                           [0.5, 0.0, 1.0],
                           [1.5, 1.0, 0.0]])
        tree = mst(distance_matrix(values, ["A", "B", "C"]))
        assert {(e.a, e.b) for e in tree.edges} == {("A", "B"), ("B", "C")}
        assert tree.total_weight == pytest.approx(1.5)
        assert tree.total_weight == pytest.approx(min_spanning_weight(values))

    def test_node_edge_count(self):
        rng = np.random.default_rng(7)
        n = 30
        sym = rng.uniform(0.1, 2.0, (n, n))
        sym = (sym + sym.T) / 2
        np.fill_diagonal(sym, 0.0)
        tree = mst(distance_matrix(sym, [f"N{i:02d}" for i in range(n)]))
        assert len(tree.edges) == n - 1

    def test_tie_breaking_lexicographic_star(self):
        n = 5
        values = np.ones((n, n))
        np.fill_diagonal(values, 0.0)
        tree = mst(distance_matrix(values, ["A", "B", "C", "D", "E"]))
        assert {(e.a, e.b) for e in tree.edges} == {
            ("A", "B"), ("A", "C"), ("A", "D"), ("A", "E")}
        assert tree.total_weight == pytest.approx(n - 1.0)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(2, 8))
            sym = rng.uniform(0.0, 2.0, (n, n))
            sym = (sym + sym.T) / 2
            np.fill_diagonal(sym, 0.0)
            tree = mst(distance_matrix(sym, [f"N{i}" for i in range(n)]))
            assert tree.total_weight == pytest.approx(
                min_spanning_weight(sym), abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        sym = rng.uniform(0.0, 2.0, (12, 12))
        sym = (sym + sym.T) / 2
        np.fill_diagonal(sym, 0.0)
        dm = distance_matrix(sym, [f"N{i:02d}" for i in range(12)])
        assert mst(dm) == mst(dm)

    def test_needs_two_nodes(self):
        with pytest.raises(DataError):
            mst(distance_matrix(np.zeros((1, 1)), ["A"]))


class TestMstMatchesKruskal:
    """Exact agreement with an independent Kruskal, ties included."""

    @staticmethod
    def assert_same_tree(dm):
        tree = mst(dm)
        edges, total = kruskal_tree(dm.values, dm.tickers)
        assert tree.edges == edges
        assert tree.total_weight == total

    @pytest.mark.parametrize("per_unit", [None, 2, 3, 5])
    def test_random_matrices(self, per_unit):
        # quantizing distances to steps of 1/per_unit makes most weights tie
        rng = np.random.default_rng(10 + (per_unit or 0))
        for _ in range(80):
            n = int(rng.integers(2, 61))
            sym = rng.uniform(0.0, 2.0, (n, n))
            sym = (sym + sym.T) / 2
            if per_unit is not None:
                sym = np.clip(np.round(sym * per_unit) / per_unit, 0.0, 2.0)
            np.fill_diagonal(sym, 0.0)
            tickers = [f"{chr(65 + int(k) % 26)}{k}"
                       for k in rng.permutation(3 * n)[:n]]
            self.assert_same_tree(distance_matrix(sym, tickers))

    def test_correlation_distances_n300(self):
        rng = np.random.default_rng(11)
        factors = rng.normal(0, 0.01, (6, 400))
        loadings = rng.uniform(0.0, 1.5, (300, 6)) * (rng.random((300, 6)) < 0.3)
        rows = loadings @ factors + rng.normal(0, 0.01, (300, 400))
        tickers = [f"S{k:03d}" for k in rng.permutation(300)]
        self.assert_same_tree(to_distance(pearson_matrix(return_panel(rows, tickers))))


class TestValidation:
    def test_correlation_out_of_range_rejected(self):
        bad = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(DataError):
            CorrelationMatrix(tickers=("A", "B"), values=bad)

    def test_spanning_tree_edge_count_enforced(self):
        with pytest.raises(DataError):
            SpanningTree(nodes=("A", "B", "C"),
                         edges=(TreeEdge("A", "B", 1.0),), total_weight=1.0)

    def test_mst_duplicate_tickers_rejected(self):
        values = np.ones((3, 3))
        np.fill_diagonal(values, 0.0)
        with pytest.raises(DataError):
            mst(distance_matrix(values, ["A", "B", "A"]))
