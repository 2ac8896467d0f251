"""Output checks behind ``ok_frac``, independent of the seed.

A report passes when:

- every file the run must write is there;
- each ``mst_<sub>.csv`` has n-1 edges spanning the accepted tickers, and its
  total distance matches ``scipy.sparse.csgraph.minimum_spanning_tree`` on
  correlation distances computed here with numpy, within 1e-9;
- the communities of each sub-period partition the accepted tickers;
- ``verdicts.csv`` has one row per (vehicle, sub-period);
- the assets missing from ``run.json`` are exactly the planted rejects.

Byte identity across the runs of one benchmark invocation is checked by the
caller with ``report_digest``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

from workloads import Expected

MST_TOLERANCE = 1e-9
FULL = "full"


def report_digest(out_dir: Path) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


def sub_columns(exp: Expected) -> dict[str, np.ndarray]:
    """Grid columns of every sub-period, "full" last."""
    days = exp.grid.astype("datetime64[D]")
    cols = {name: np.flatnonzero((days >= np.datetime64(start))
                                 & (days <= np.datetime64(end)))
            for name, start, end in exp.subperiods}
    cols[FULL] = np.arange(exp.grid.size)
    return cols


def mst_total(prices: np.ndarray) -> float:
    """Minimum spanning tree weight of the correlation distances of log returns."""
    r = np.diff(np.log(prices), axis=1)
    z = r - r.mean(axis=1, keepdims=True)
    z /= np.sqrt((z * z).sum(axis=1, keepdims=True))
    dist = np.sqrt(np.clip(2.0 * (1.0 - z @ z.T), 0.0, 4.0))
    np.fill_diagonal(dist, 0.0)
    return float(minimum_spanning_tree(dist).sum())


def read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_mst(path: Path, exp: Expected, cols: np.ndarray) -> list[str]:
    rows = read_rows(path)
    n = len(exp.tickers)
    if len(rows) != n - 1:
        return [f"{path.name}: {len(rows)} edges for {n} tickers"]
    index = {t: i for i, t in enumerate(exp.tickers)}
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0.0
    for source, target, _, distance in rows:
        if source not in index or target not in index:
            return [f"{path.name}: edge {source}-{target} leaves the accepted set"]
        a, b = find(index[source]), find(index[target])
        if a == b:
            return [f"{path.name}: edge {source}-{target} closes a cycle"]
        parent[a] = b
        total += float(distance)
    reference = mst_total(exp.prices[:, cols])
    if abs(total - reference) > MST_TOLERANCE:
        return [f"{path.name}: total distance {total!r}, reference {reference!r}"]
    return []


def check_communities(path: Path, exp: Expected) -> list[str]:
    members = [t for row in read_rows(path) for t in row[2].split(";")]
    if len(members) != len(set(members)):
        return [f"{path.name}: a ticker sits in two communities"]
    if set(members) != set(exp.tickers):
        return [f"{path.name}: communities do not cover the accepted tickers"]
    return []


def check_report(out_dir: Path, exp: Expected) -> list[str]:
    """Every problem found in one report directory; empty when it passes."""
    columns = sub_columns(exp)
    wanted = ["run.json", "verdicts.csv"] + [
        f"{kind}_{slug(name)}.csv" for name in columns
        for kind in ("communities", "plotdata", "mst")]
    missing = [name for name in wanted if not (out_dir / name).is_file()]
    if missing:
        return [f"missing report files: {missing}"]
    problems: list[str] = []

    try:
        betas = json.loads((out_dir / "run.json").read_text())["betas"]
        reported = {t for vehicle in betas.values() for t in vehicle["betas"]}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"run.json unreadable: {exc!r}"]
    rejected = (set(exp.tickers) | exp.rejected) - reported
    if reported - set(exp.tickers) - exp.rejected:
        problems.append("run.json names tickers that were never generated")
    if rejected != exp.rejected:
        problems.append(f"rejected {sorted(rejected)}, planted {sorted(exp.rejected)}")

    cells = [(row[0], row[1]) for row in read_rows(out_dir / "verdicts.csv")]
    expected_cells = {(v, name) for v in exp.vehicles for name in columns}
    if len(cells) != len(expected_cells) or set(cells) != expected_cells:
        problems.append(f"verdicts.csv has {len(cells)} rows, "
                        f"expected one per (vehicle, sub-period): {len(expected_cells)}")

    for name, cols in columns.items():
        s = slug(name)
        if cols.size < 3:   # the program skips slices shorter than 3 bars
            for kind in ("mst", "communities"):
                if read_rows(out_dir / f"{kind}_{s}.csv"):
                    problems.append(f"{kind}_{s}.csv: rows for an empty slice")
            continue
        problems += check_mst(out_dir / f"mst_{s}.csv", exp, cols)
        problems += check_communities(out_dir / f"communities_{s}.csv", exp)
    return problems
