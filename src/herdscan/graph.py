"""Correlation matrix, metric distance transform and minimum spanning tree.

The complete asset graph carries the distance d = sqrt(2*(1 - c)) on each
pair, mapping correlation c in [-1, 1] onto [0, 2]. Its minimum spanning
tree keeps the n-1 strongest-correlation links, which is the skeleton the
community detection runs on.

The tree is grown by Prim's algorithm on the dense distance matrix: O(n^2)
array work and O(n) extra memory, no list of candidate edges. Edges are
ranked by the strict key (weight, smaller ticker, larger ticker), so the
tree is unique even when distances tie, and it is returned with its edges
sorted by that key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, ZeroVarianceAsset
from .returns import ReturnPanel

#: Assets with return variance below this are rejected outright.
MIN_RETURN_VARIANCE = 1e-18


@dataclass(frozen=True)
class CorrelationMatrix:
    tickers: tuple[str, ...]
    values: np.ndarray  # symmetric, unit diagonal, entries in [-1, 1]

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        n = len(self.tickers)
        if v.shape != (n, n):
            raise DataError("correlation matrix shape mismatch")
        if not np.array_equal(np.diag(v), np.ones(n)):
            raise DataError("correlation diagonal must be exactly 1")
        if not np.array_equal(v, v.T):
            raise DataError("correlation matrix must be symmetric")
        if (np.abs(v) > 1 + 1e-12).any():
            raise DataError("correlation entries must lie in [-1, 1]")


@dataclass(frozen=True)
class DistanceMatrix:
    tickers: tuple[str, ...]
    values: np.ndarray  # symmetric, zero diagonal, entries in [0, 2]

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        n = len(self.tickers)
        if v.shape != (n, n):
            raise DataError("distance matrix shape mismatch")
        if np.diag(v).any():
            raise DataError("distance diagonal must be exactly 0")
        if not np.array_equal(v, v.T):
            raise DataError("distance matrix must be symmetric")
        if (v < 0).any() or (v > 2 + 1e-12).any():
            raise DataError("distance entries must lie in [0, 2]")


class TreeEdge(NamedTuple):
    a: str
    b: str
    weight: float


@dataclass(frozen=True)
class SpanningTree:
    nodes: tuple[str, ...]
    edges: tuple[TreeEdge, ...]
    total_weight: float

    def __post_init__(self):
        if len(self.edges) != len(self.nodes) - 1:
            raise DataError("spanning tree must have n-1 edges")


def pearson_matrix(rp: ReturnPanel) -> CorrelationMatrix:
    """Pairwise Pearson correlations of asset returns over the panel window."""
    variances = rp.returns.var(axis=1)
    for ticker, var in zip(rp.tickers, variances):
        if var < MIN_RETURN_VARIANCE:
            raise ZeroVarianceAsset(ticker)
    corr = np.corrcoef(rp.returns)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(tickers=rp.tickers, values=corr)


def to_distance(cm: CorrelationMatrix) -> DistanceMatrix:
    """Elementwise sqrt(2*(1 - c)); exact zero diagonal."""
    dist = np.sqrt(np.clip(2.0 * (1.0 - cm.values), 0.0, 4.0))
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(tickers=cm.tickers, values=dist)


def mst(dm: DistanceMatrix) -> SpanningTree:
    """Minimum spanning tree by dense Prim on the distance matrix.

    Edges are ordered strictly by (weight, smaller ticker, larger ticker):
    picking the next tree node and updating each node's lightest edge into
    the tree both break weight ties by that key. Under a strict total order
    the tree is unique, so it is the same on every run and platform, ties
    included. Edges come out sorted by that key, and ``total_weight`` is
    summed in that order.
    """
    n = len(dm.tickers)
    if n < 2:
        raise DataError("mst needs at least 2 nodes")
    if len(set(dm.tickers)) != n:
        raise DataError("mst needs distinct tickers")
    d = dm.values
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=dm.tickers.__getitem__)] = np.arange(n)

    def tie_keys(v: int) -> np.ndarray:
        """(smaller, larger) ticker rank of each edge (v, u), as one int64."""
        return np.minimum(rank, rank[v]) * n + np.maximum(rank, rank[v])

    # per node outside the tree: its lightest edge into the tree, as
    # weight, tie key and tree end; frozen once the node joins the tree
    outside = np.ones(n, dtype=bool)
    best_w = d[0].copy()
    best_key = tie_keys(0)
    best_from = np.zeros(n, dtype=np.int64)
    outside[0] = False
    best_w[0] = np.inf
    for _ in range(n - 1):
        cand = np.flatnonzero(best_w == best_w.min())
        v = int(cand[np.argmin(best_key[cand])])
        outside[v] = False
        best_w[v] = np.inf
        w, key = d[v], tie_keys(v)
        better = outside & ((w < best_w) | ((w == best_w) & (key < best_key)))
        best_w[better] = w[better]
        best_key[better] = key[better]
        best_from[better] = v

    child = np.arange(1, n)
    parent = best_from[child]
    lo, hi = np.minimum(parent, child), np.maximum(parent, child)
    weights = d[lo, hi]
    order = np.lexsort((best_key[child], weights))
    edges: list[TreeEdge] = []
    total = 0.0
    for i, j, w in zip(lo[order].tolist(), hi[order].tolist(),
                       weights[order].tolist()):
        a, b = dm.tickers[i], dm.tickers[j]
        if b < a:
            a, b = b, a
        edges.append(TreeEdge(a, b, w))
        total += w
    return SpanningTree(nodes=dm.tickers, edges=tuple(edges), total_weight=total)
