"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
implementations under test: normal-equation least squares, spanning-tree
enumeration via Prufer sequences, Kruskal's algorithm with component
relabelling, exhaustive set-partition modularity search, the literal
lagged-sum form of the Newey-West covariance, and the per-cell fill log
that aligned panels carried before their fill array, with the filters
``restrict`` and ``slice_panel`` applied to it record by record.

Two references are the package's own earlier forms, kept for bit-for-bit
comparison: least squares through scipy's ``qr`` and ``solve_triangular``
wrappers (``wrapper_ols``), and the sub-period slice by a boolean date mask
(``mask_slice_panel``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np
from scipy import linalg as sla
from scipy.special import stdtr

from herdscan.errors import EmptySlice, RankDeficient, TooFewObservations


def normal_equations_ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve (X'X) b = X'y directly."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def classical_se(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    n, k = X.shape
    beta = normal_equations_ols(X, y)
    resid = y - X @ beta
    s2 = resid @ resid / (n - k)
    return np.sqrt(np.diag(s2 * np.linalg.inv(X.T @ X)))


def newey_west_cov_bruteforce(X: np.ndarray, resid: np.ndarray,
                              lag: int) -> np.ndarray:
    """Literal double-sum Bartlett-kernel sandwich covariance."""
    n, k = X.shape
    meat = np.zeros((k, k))
    for t in range(n):
        xt = X[t]
        meat += resid[t] ** 2 * np.outer(xt, xt)
    for j in range(1, lag + 1):
        w = 1.0 - j / (lag + 1.0)
        for t in range(j, n):
            xt, xs = X[t], X[t - j]
            meat += w * resid[t] * resid[t - j] * (np.outer(xt, xs)
                                                   + np.outer(xs, xt))
    bread = np.linalg.inv(X.T @ X)
    return bread @ meat @ bread


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(j for j in range(n) if degree[j] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    last = [j for j in range(n) if degree[j] == 1]
    edges.append((last[0], last[1]))
    return edges


@lru_cache(maxsize=None)
def all_spanning_trees(n: int) -> np.ndarray:
    """Edge lists of every labeled tree on n nodes: [n^(n-2), n-1, 2]."""
    if n == 2:
        return np.array([[[0, 1]]])
    trees = [prufer_decode(seq, n) for seq in product(range(n), repeat=n - 2)]
    return np.array(trees)


def min_spanning_weight(dist: np.ndarray) -> float:
    """Exhaustive minimum over all spanning trees of a complete graph."""
    n = dist.shape[0]
    trees = all_spanning_trees(n)
    weights = dist[trees[:, :, 0], trees[:, :, 1]].sum(axis=1)
    return float(weights.min())


def kruskal_tree(dist, names) -> tuple[tuple[tuple[str, str, float], ...], float]:
    """Minimum spanning tree of a complete graph by Kruskal's algorithm.

    Edges rank by (weight, smaller name, larger name) and are accepted in
    that order; each accepted edge relabels one component wholesale.
    Returns the (smaller, larger, weight) edges in acceptance order and
    their running sum.
    """
    n = len(names)
    ranked = sorted((float(dist[i][j]), *sorted((names[i], names[j])))
                    for i in range(n) for j in range(i + 1, n))
    component = {name: name for name in names}
    tree = []
    total = 0.0
    for w, a, b in ranked:
        keep, gone = component[a], component[b]
        if keep == gone:
            continue
        for name in names:
            if component[name] == gone:
                component[name] = keep
        tree.append((a, b, w))
        total += w
        if len(tree) == n - 1:
            break
    return tuple(tree), total


@lru_cache(maxsize=None)
def all_partitions(n: int) -> np.ndarray:
    """Every set partition of range(n) as restricted-growth label rows."""
    rows: list[list[int]] = []
    labels = [0] * n

    def rec(i: int, next_label: int) -> None:
        if i == n:
            rows.append(labels.copy())
            return
        for lab in range(next_label + 1):
            labels[i] = lab
            rec(i + 1, max(next_label, lab + 1))

    rec(0, 0)
    return np.array(rows)


def modularity_of_labels(adj: np.ndarray, labels: np.ndarray) -> float:
    """Direct evaluation of Q from the adjacency matrix (no self-loops)."""
    k = adj.sum(axis=1)
    two_m = k.sum()
    B = adj - np.outer(k, k) / two_m
    same = labels[:, None] == labels[None, :]
    return float(B[same].sum() / two_m)


def best_partition(adj: np.ndarray) -> tuple[float, np.ndarray]:
    """Exhaustive maximum-modularity partition (n small)."""
    n = adj.shape[0]
    k = adj.sum(axis=1)
    two_m = k.sum()
    B = adj - np.outer(k, k) / two_m
    best_q, best_labels = -np.inf, None
    for labels in all_partitions(n):
        same = labels[:, None] == labels[None, :]
        q = B[same].sum() / two_m
        if q > best_q:
            best_q, best_labels = q, labels
    return float(best_q), best_labels


def rand_index(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    iu = np.triu_indices(a.size, 1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    return float((same_a == same_b).mean())


def fill_log(stamps: dict[str, np.ndarray], grid: np.ndarray,
             start_minute: int, end_minute: int) -> list[tuple]:
    """(ticker, timestamp, method) of every grid cell a series lacks, in
    (ticker, timestamp) order. The cell is "bfill" if the series has no
    in-window bar before it and "ffill" otherwise, whether or not that
    earlier bar is on the grid."""
    records = []
    for ticker in sorted(stamps):
        ts = stamps[ticker]
        minutes = ((ts - ts.astype("datetime64[D]"))
                   .astype("timedelta64[m]").astype(np.int64))
        ts = ts[(minutes >= start_minute) & (minutes < end_minute)]
        idx = np.searchsorted(ts, grid, side="right") - 1
        clipped = np.clip(idx, 0, ts.size - 1)
        for col in np.flatnonzero(ts[clipped] != grid):
            records.append((ticker, grid[col], "bfill" if idx[col] < 0 else "ffill"))
    return records


def restrict_fill_log(records: list[tuple], tickers) -> list[tuple]:
    """The records of the given tickers."""
    kept = set(tickers)
    return [r for r in records if r[0] in kept]


def slice_fill_log(records: list[tuple], grid: np.ndarray) -> list[tuple]:
    """The records whose timestamp is on ``grid``."""
    in_range = set(grid.tolist())
    return [r for r in records
            if r[1].astype("datetime64[s]").item() in in_range]


def wrapper_ols(X: np.ndarray, y: np.ndarray, *, hac: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """(coefficients, std errors, t, p, residual variance) of least squares
    through ``scipy.linalg.qr(pivoting=True)`` and ``solve_triangular``,
    with the same rank check and error types as ``econometrics.ols``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("design and response must be finite")
    n, k = X.shape
    if n <= k:
        raise TooFewObservations(f"need n > k, got n={n}, k={k}")

    q_mat, r_mat, piv = sla.qr(X, mode="economic", pivoting=True,
                               check_finite=False)
    diag = np.abs(np.diag(r_mat))
    tol = (diag[0] if diag[0] > 0 else 1.0) * max(n, k) * np.finfo(np.float64).eps
    bad = np.nonzero(diag <= tol)[0]
    if diag[0] == 0 or bad.size:
        raise RankDeficient(int(piv[bad[0]] if bad.size else piv[0]))

    coef_pivoted = sla.solve_triangular(r_mat, q_mat.T @ y, check_finite=False)
    coef = np.empty(k)
    coef[piv] = coef_pivoted

    residuals = y - X @ coef
    dof = n - k
    s2 = float(np.einsum("i,i->", residuals, residuals)) / dof

    r_inv = sla.solve_triangular(r_mat, np.eye(k), check_finite=False)
    xtx_inv_pivoted = r_inv @ r_inv.T
    xtx_inv = np.empty_like(xtx_inv_pivoted)
    xtx_inv[np.ix_(piv, piv)] = xtx_inv_pivoted

    if hac:
        scores = residuals[:, None] * X
        meat = scores.T @ scores
        lag = int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))
        for j in range(1, lag + 1):
            gamma = scores[j:].T @ scores[:-j]
            meat += (1.0 - j / (lag + 1.0)) * (gamma + gamma.T)
        cov = xtx_inv @ meat @ xtx_inv
    else:
        cov = s2 * xtx_inv
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, coef / se,
                     np.where(coef == 0, 0.0, np.sign(coef) * np.inf))
    p = np.where(np.isinf(t), 0.0, 2.0 * stdtr(dof, -np.abs(t)))
    return coef, se, t, p, s2


def mask_slice_panel(panel, sub) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, prices, fills) of the panel's columns whose calendar day lies
    in [sub.start, sub.end]; EmptySlice for fewer than 3 of them."""
    days = panel.grid.astype("datetime64[D]")
    mask = (days >= np.datetime64(sub.start)) & (days <= np.datetime64(sub.end))
    kept = int(mask.sum())
    if kept == 0:
        raise EmptySlice(f"{sub.name}: no panel timestamps in range")
    if kept < 3:
        raise EmptySlice(f"{sub.name}: only {kept} timestamps in range")
    return panel.grid[mask], panel.prices[:, mask], panel.fills[:, mask]
