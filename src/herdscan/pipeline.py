"""End-to-end orchestration: load, analyze per vehicle and per community,
and emit deterministic reports.

One chain runs over every configured sub-period plus the implicit "full"
period: slice the panel and take log returns once, fit the dispersion
regressions on each vehicle class's assets, then cluster the whole
cross-vehicle panel (correlations, spanning tree, community detection) and
fit the regressions inside each community, with the community's own mean
return as the market return. Each of the three entry points
(``run_analysis``, ``run_per_vehicle``, ``community_structure``) loops
over one generator of per-period returns, ``_period_returns``, and runs
the steps it reports.

``load_panel`` parses the bar files on a thread pool of ``thread_cap()``
workers, and on the same pool locates each series's stamps in the union of
all of them and fills the panel's rows. These steps spend much of their
time in numpy calls that release the GIL: on a 2-core x86-64 machine two
workers parsed 222 files in 0.47 s against 0.68 s for one, and built their
panel from the parsed series in 0.14 s against 0.16 s. Sub-periods are
independent work units too, but run one after another in one loop: there a
thread pool was no faster end to end on three benchmark workloads (1.6
times slower on many short sub-periods) and used 20-28 % more peak memory.
Report files are byte-deterministic for a given input and configuration, so
wall-clock timings never go into them; the CLI logs them instead. The three
CLI commands' files are written by the ``emit_*`` functions, all through
``_emit``, which first deletes other commands' and earlier runs' files.
Every CSV table is spelled by one writer, ``_csv``: a header line, then one
comma-joined line per row, each line ending in ``\n`` and each cell spelled
by ``_fmt``.

While the sub-periods run, numpy's bundled OpenBLAS is held at one thread
(``_one_blas_thread`` says why); the reports then do not depend on
``OPENBLAS_NUM_THREADS`` or the CPU count.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import threading
import time as time_mod
from collections import deque
# load_panel looks the pool class up here at each call, so a caller can swap
# it (bench/tracer.py hands each worker the span that submitted its task).
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .community import LOUVAIN_WEIGHTINGS, Partition, graph_from_tree, louvain
from .econometrics import (
    MIN_OBS,
    MIN_REGIME,
    BetaReport,
    HerdingVerdict,
    RegressionFit,
    build_beta_report,
    capm_beta,
    fit_csad_basic,
    fit_csad_updown,
    verdict,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateRegressor,
    EmptyCommunity,
    EmptySlice,
    IoFailure,
    OneSidedSample,
    RankDeficient,
    TooFewObservations,
)
from .graph import SpanningTree, mst, pearson_matrix, to_distance
from .ingest import (
    DEFAULT_TIMEZONE,
    FULL_PERIOD,
    AlignedPanel,
    AssetMeta,
    FilterDecision,
    RawSeries,
    Sector,
    SubPeriod,
    Vehicle,
    _check_report_names,
    _filter_and_align,
    bar_files,
    file_slug,
    load_bars,
    slice_panel,
)
# bench/tracer.py looks these up here (tests/test_names.py checks it), though
# load_panel builds the panel through _filter_and_align without them
from .ingest import align, filter_by_missing, shared_grid  # noqa: F401
from .returns import CsadSeries, ReturnPanel, csad, log_returns

SCHEMA_VERSION = 1

#: Cross-sectional regression floor: communities below it are reported
#: but not regressed.
DEFAULT_MIN_COMMUNITY_SIZE = 4

_SKIP_REASONS = {
    EmptySlice: "empty_slice",
    TooFewObservations: "too_few_observations",
    DegenerateRegressor: "degenerate_regressor",
    RankDeficient: "rank_deficient",
}
_SKIP_ERRORS = tuple(_SKIP_REASONS)


@dataclass(frozen=True)
class VehicleCell:
    """One (vehicle, sub-period) result: a verdict or a skip reason."""

    vehicle: Vehicle
    sub_period: str
    verdict: HerdingVerdict | None
    skipped_reason: str | None
    n_assets: int
    n_obs: int

    def __post_init__(self):
        if (self.verdict is None) == (self.skipped_reason is None):
            raise DataError("exactly one of verdict/skipped_reason must be set")


@dataclass(frozen=True)
class CommunityReport:
    """Herding verdict and sector mix for one community in one sub-period."""

    sub_period: str
    community_id: int
    members: tuple[str, ...]
    verdict: HerdingVerdict | None
    sector_distribution: Mapping[Sector, float]
    skipped_reason: str | None = None

    def __post_init__(self):
        if (self.verdict is None) == (self.skipped_reason is None):
            raise DataError("exactly one of verdict/skipped_reason must be set")


@dataclass
class AnalysisRun:
    """Everything one run produced, ready for serialization."""

    config: dict
    config_digest: str
    per_vehicle: dict[tuple[Vehicle, str], VehicleCell]
    combined: dict[str, tuple[CommunityReport, ...]]  # configured order, "full" last
    trees: dict[str, SpanningTree | None]
    beta_reports: dict[Vehicle, BetaReport]
    timings: dict[str, float] = field(default_factory=dict)


# --- threads -------------------------------------------------------------------

def thread_cap() -> int:
    """Bar-file parse workers: 2, or fewer when fewer CPUs are usable.

    Usable CPUs are those of the process's affinity mask where the platform
    has one, else ``os.cpu_count()``. Two is the count measured to pay on a
    2-core machine, where three were no faster than two; a larger cap waits
    for a measurement on more cores. No environment variable sets it.
    """
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(2, usable)


#: (get, set) symbol pairs of OpenBLAS's thread count, first match wins:
#: numpy 2.x wheels, numpy 1.26 wheels, a 32-bit-integer build.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _numpy_openblas() -> tuple[str, Callable[[], int], Callable[[int], None]] | None:
    """(``path:get_symbol``, get, set) of the thread count of the OpenBLAS
    bundled in numpy's wheel, bound on first use; None when there is none.

    Wheels ship it in ``numpy.libs/`` (Linux, Windows) or ``numpy/.dylibs/``
    (macOS); loading it again returns the copy numpy already uses.
    """
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return f"{path}:{get_name}", get, set_
    return None


# The thread count is one per process, so the passes that hold it are
# counted per process too: the first to start saves it, the last to end
# restores it.
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Each entry point runs its sub-period loop in such a block. The threaded
    BLAS call there is the correlation product of ``pearson_matrix`` (a
    ``syrk``, which OpenBLAS hands to its worker thread from 100 assets up),
    and the woken worker then spins a full core for about 0.13 s waiting for
    more work. On a 2-core x86-64 machine each ``np.corrcoef`` of 100, 219
    or 1000 assets was followed by 0.13-0.14 s of extra CPU (none at 60
    assets), and the threaded 1000 x 2600 product saved only 0.015 s of wall
    time. It also rounded 60-260 correlations of a 100-300-asset panel
    differently in the last bit, which now and then moved a digit of a
    spanning-tree file.

    The count is process-wide: numpy BLAS calls from other threads also run
    on one thread while a block is open, and overlapping blocks (analyses
    run from several threads at once) restore it when the last one ends.
    Without a bundled OpenBLAS this does nothing.
    """
    global _blas_users, _blas_saved
    bound = _numpy_openblas()
    if bound is None:
        yield
        return
    _, get, set_ = bound
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


# --- loading ------------------------------------------------------------------

def load_panel(data_dir: Path | str, sector_map: Mapping[str, AssetMeta], *,
               tz: str = DEFAULT_TIMEZONE
               ) -> tuple[AlignedPanel, dict[str, FilterDecision]]:
    """Load each file ``bar_files(data_dir)`` names; align the accepted assets.

    Every ticker must be in the sector map before any file is parsed. Files
    are parsed on ``min(thread_cap(), number of files)`` threads, their
    stamps read in zone ``tz``; the series come back in file-name order, and
    a defective file raises what a loop over the files in that order would
    raise first, its message led by the file name. The missing-data filter
    runs against a provisional grid built from all loaded series; the final
    grid is rebuilt from the accepted ones. The same threads locate each
    series's stamps in the union of all of them, sorted once, and fill the
    panel's rows (``ingest._filter_and_align``). The trading hours, the
    grid quorum and the missing-data limits are ``ingest`` constants. The
    returned decisions include rejected tickers.
    """
    named = bar_files(data_dir)
    unmapped = sorted(t for t in named if t not in sector_map)
    if unmapped:
        raise ConfigError(f"tickers missing from the sector map: {unmapped}")

    workers = min(thread_cap(), len(named))
    pool = ThreadPoolExecutor(workers)
    try:
        # At most 2 tasks per worker wait beyond the one whose result is due,
        # so a failing file stops the parse after a few more files.
        tasks: deque = deque()
        series = []
        for ticker, path in named.items():
            tasks.append((path, pool.submit(load_bars, path, ticker, tz=tz)))
            if len(tasks) > 2 * workers:
                series.append(_collect(*tasks.popleft()))
        series.extend(_collect(*task) for task in tasks)
        return _filter_and_align(series, sector_map, pool.map)
    finally:
        pool.shutdown(cancel_futures=True)


def _collect(path: Path, task: Future) -> RawSeries:
    """The series ``task`` parsed from ``path``, copied by the calling thread;
    a ``DataError`` is raised again with the file name first in its message.

    glibc's malloc serves each worker thread from its own arena, which cannot
    reuse memory the main thread freed before. Kept as the workers made
    them, the series of 222 bar files raised peak memory by about 45 MiB;
    copied here, they fit in the main thread's free memory, and each worker
    reuses its originals' space for its next file.
    """
    try:
        series = task.result()
    except DataError as exc:
        exc.args = (f"{path.name}: {exc}",)
        raise
    return RawSeries(series.ticker, series.timestamps.copy(), series.closes.copy())


def full_subperiod(panel: AlignedPanel) -> SubPeriod:
    first = panel.grid[0].astype("datetime64[D]").item()
    last = panel.grid[-1].astype("datetime64[D]").item()
    return SubPeriod(FULL_PERIOD, first, last)


# --- one pass per sub-period -------------------------------------------------------

def _herding(cs: CsadSeries, *, hac: bool
             ) -> tuple[HerdingVerdict | None, str | None]:
    """The herding verdict of a dispersion series, or why it was skipped."""
    try:
        fit4 = fit_csad_basic(cs, hac=hac)
        try:
            fit5: RegressionFit | None = fit_csad_updown(cs, hac=hac)
        except OneSidedSample:
            fit5 = None
        return verdict(fit4, fit5), None
    except _SKIP_ERRORS as exc:
        return None, _SKIP_REASONS[type(exc)]


def _period_returns(panel: AlignedPanel, subs: Sequence[SubPeriod]
                    ) -> Iterator[tuple[str, ReturnPanel | None]]:
    """(name, log returns) of every sub-period, then of the full period.

    Each period is sliced and turned into log returns once, and the slice is
    freed then; an empty slice gives None. Sub-periods whose reports would
    share a file are a ConfigError, raised before any slice. The callers hold
    the BLAS thread count, not this generator: after an error in a caller's
    loop it stays suspended until the traceback is freed.
    """
    _check_report_names(sub.name for sub in subs)
    for sub in [*subs, full_subperiod(panel)]:
        try:
            rp = log_returns(slice_panel(panel, sub))
        except EmptySlice:
            rp = None
        yield sub.name, rp


def _vehicle_cells(assets: Sequence[AssetMeta], rp: ReturnPanel | None,
                   sub_name: str, hac: bool) -> list[VehicleCell]:
    """One cell per vehicle from a sub-period's returns (None: an empty slice)."""
    cells = []
    for vehicle in sorted({a.vehicle for a in assets}, key=lambda v: v.value):
        idx = [i for i, a in enumerate(assets) if a.vehicle is vehicle]
        if len(idx) < 2 or rp is None:
            reason = "too_few_assets" if len(idx) < 2 else "empty_slice"
            cells.append(VehicleCell(vehicle, sub_name, None, reason, len(idx), 0))
            continue
        # Gathered in slice_panel's Fortran order: csad sums 8 or more rows in
        # a different order for each layout, and so moves the reports' last bits.
        returns = rp.returns[idx].copy(order="F")
        cs = csad(ReturnPanel([rp.assets[i] for i in idx], rp.grid, returns))
        cells.append(VehicleCell(vehicle, sub_name, *_herding(cs, hac=hac),
                                 len(idx), len(cs)))
    return cells


def run_per_vehicle(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                    hac: bool = False) -> dict[tuple[Vehicle, str], VehicleCell]:
    """Herding verdicts per (vehicle, sub-period), plus the full period.

    Every vehicle present in the panel is analyzed; one with fewer than 2
    assets gets ``too_few_assets`` cells. To analyze one vehicle, restrict
    the panel to its assets first.
    """
    with _one_blas_thread():
        return {(c.vehicle, c.sub_period): c
                for name, rp in _period_returns(panel, subs)
                for c in _vehicle_cells(panel.assets, rp, name, hac)}


# --- communities ------------------------------------------------------------------

def sector_distribution(members: Sequence[AssetMeta]) -> dict[Sector, float]:
    """Fraction of each sector among the members; fractions sum to 1."""
    if not members:
        raise EmptyCommunity("no members")
    counts: dict[Sector, int] = {}
    for m in members:
        counts[m.sector] = counts.get(m.sector, 0) + 1
    total = len(members)
    return {sector: counts[sector] / total
            for sector in sorted(counts, key=lambda s: s.value)}


def _structure(rp: ReturnPanel | None, louvain_weights: str
               ) -> tuple[SpanningTree | None, Partition | None]:
    """Spanning tree and partition of a sub-period's returns (None: an empty slice)."""
    if rp is None:
        return None, None
    tree = mst(to_distance(pearson_matrix(rp)))
    return tree, louvain(graph_from_tree(tree, louvain_weights))


def _community_reports(rp: ReturnPanel | None, partition: Partition | None,
                       sub_name: str, min_community_size: int, hac: bool
                       ) -> tuple[CommunityReport, ...]:
    """Sector mix and herding verdict of every community of a partition
    (none for an empty slice)."""
    if partition is None:
        return ()
    meta_by_ticker = {a.ticker: a for a in rp.assets}
    reports: list[CommunityReport] = []
    for cid, tickers in enumerate(partition.communities):
        mix = sector_distribution([meta_by_ticker[t] for t in tickers])
        if len(tickers) < min_community_size:
            v, reason = None, "below_min_size"
        else:
            v, reason = _herding(csad(rp.restrict(tickers)), hac=hac)
        reports.append(CommunityReport(sub_name, cid, tickers, v, mix, reason))
    return tuple(reports)


def _check_communities(louvain_weights: str, min_community_size: int = 2) -> None:
    """ConfigError unless ``louvain_weights`` names a known edge weighting and
    ``min_community_size`` is at least 2."""
    if louvain_weights not in LOUVAIN_WEIGHTINGS:
        raise ConfigError(f"louvain_weights must be one of {LOUVAIN_WEIGHTINGS},"
                          f" got {louvain_weights!r}")
    if min_community_size < 2:
        raise ConfigError("min_community_size must be at least 2")


def _check_proxy(panel: AlignedPanel, proxy: str | None) -> None:
    """ConfigError unless ``proxy`` is None or a ticker of the panel."""
    if proxy is not None and proxy not in panel.tickers:
        raise ConfigError(f"beta proxy {proxy!r} not in the panel")


def community_structure(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                        louvain_weights: str = "unit",
                        ) -> dict[str, tuple[SpanningTree | None, Partition | None]]:
    """Spanning tree and partition only (no regressions) per sub-period."""
    _check_communities(louvain_weights)
    with _one_blas_thread():
        return {name: _structure(rp, louvain_weights)
                for name, rp in _period_returns(panel, subs)}


# --- betas ------------------------------------------------------------------------

EQUAL_WEIGHT_PROXY = "equal-weight market"


def compute_beta_reports(panel: AlignedPanel, *,
                         proxy: str | None = None) -> dict[Vehicle, BetaReport]:
    """CAPM betas per vehicle over the full period, vs one chosen proxy."""
    _check_proxy(panel, proxy)
    rp = log_returns(panel)
    if proxy is not None:
        proxy_returns = rp.row(proxy)
        label = proxy
    else:
        proxy_returns = rp.returns.mean(axis=0)
        label = EQUAL_WEIGHT_PROXY

    out: dict[Vehicle, BetaReport] = {}
    for vehicle in sorted({a.vehicle for a in panel.assets}, key=lambda v: v.value):
        betas = {a.ticker: capm_beta(returns, proxy_returns)
                 for a, returns in zip(rp.assets, rp.returns)
                 if a.vehicle is vehicle}
        out[vehicle] = build_beta_report(betas, label)
    return out


# --- full run ----------------------------------------------------------------------

def run_analysis(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                 min_community_size: int = DEFAULT_MIN_COMMUNITY_SIZE,
                 louvain_weights: str = "unit",
                 beta_proxy: str | None = None,
                 hac: bool = False,
                 config_extra: Mapping | None = None) -> AnalysisRun:
    """Fit the vehicles and the communities in one pass over the sub-periods,
    add the beta reports and collect timings.

    Every vehicle in the panel is analyzed (``"vehicles": "all"`` in the
    config); ``min_obs`` and ``min_regime`` record the econometrics floors.
    """
    _check_communities(louvain_weights, min_community_size)
    _check_proxy(panel, beta_proxy)
    config = {
        "schema_version": SCHEMA_VERSION,
        "n_assets": len(panel.assets),
        "n_timestamps": int(panel.grid.size),
        "first_timestamp": str(panel.grid[0]),
        "last_timestamp": str(panel.grid[-1]),
        "subperiods": [{"name": s.name, "start": s.start.isoformat(),
                        "end": s.end.isoformat()} for s in subs],
        "vehicles": "all",
        "min_community_size": min_community_size,
        "louvain_weights": louvain_weights,
        "beta_proxy": beta_proxy or EQUAL_WEIGHT_PROXY,
        "min_obs": MIN_OBS,
        "min_regime": MIN_REGIME,
        "hac": hac,
    }
    if config_extra:
        config.update(config_extra)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()

    timings: dict[str, float] = {}
    t0 = time_mod.perf_counter()
    per_vehicle, combined, trees = {}, {}, {}
    with _one_blas_thread():
        for name, rp in _period_returns(panel, subs):
            for c in _vehicle_cells(panel.assets, rp, name, hac):
                per_vehicle[c.vehicle, c.sub_period] = c
            trees[name], partition = _structure(rp, louvain_weights)
            combined[name] = _community_reports(rp, partition, name,
                                                min_community_size, hac)
    timings["subperiods"] = time_mod.perf_counter() - t0

    t1 = time_mod.perf_counter()
    beta_reports = compute_beta_reports(panel, proxy=beta_proxy)
    timings["betas"] = time_mod.perf_counter() - t1
    timings["total"] = time_mod.perf_counter() - t0

    return AnalysisRun(
        config=config, config_digest=digest,
        per_vehicle=per_vehicle, combined=combined, trees=trees,
        beta_reports=beta_reports, timings=timings,
    )


# --- serialization ------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))  # shortest round-trip; normalizes numpy scalars
    return str(x)


def _verdict_dict(v: HerdingVerdict | None) -> dict | None:
    if v is None:
        return None
    return {
        "beta2": float(v.beta2),
        "beta2_significance": v.beta2_significance.value,
        "gamma2": None if v.gamma2 is None else float(v.gamma2),
        "gamma2_significance": v.gamma2_significance.value,
        "gamma3": None if v.gamma3 is None else float(v.gamma3),
        "gamma3_significance": v.gamma3_significance.value,
        "herding_overall": bool(v.herding_overall),
        "herding_up": bool(v.herding_up),
        "herding_down": bool(v.herding_down),
        "herding_any": bool(v.herding_any),
        "t_beta2": float(v.t_beta2),
        "t_gamma2": None if v.t_gamma2 is None else float(v.t_gamma2),
        "t_gamma3": None if v.t_gamma3 is None else float(v.t_gamma3),
        "degenerate_exact": bool(v.degenerate_exact),
    }


def _run_json(run: AnalysisRun) -> dict:
    per_vehicle: dict[str, dict] = {}
    for (vehicle, sub), cell in run.per_vehicle.items():
        per_vehicle.setdefault(vehicle.value, {})[sub] = {
            "verdict": _verdict_dict(cell.verdict),
            "skipped_reason": cell.skipped_reason,
            "n_assets": cell.n_assets,
            "n_obs": cell.n_obs,
        }
    combined = {
        sub: [{
            "community_id": r.community_id,
            "members": list(r.members),
            "verdict": _verdict_dict(r.verdict),
            "skipped_reason": r.skipped_reason,
            "sector_distribution": {s.value: float(f)
                                    for s, f in r.sector_distribution.items()},
        } for r in reports]
        for sub, reports in run.combined.items()
    }
    betas = {
        vehicle.value: {
            "proxy": report.proxy,
            "mae": float(report.mae),
            "rmse": float(report.rmse),
            "betas": {t: float(b) for t, b in report.betas.items()},
        } for vehicle, report in run.beta_reports.items()
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {**run.config, "digest": run.config_digest},
        "per_vehicle": per_vehicle,
        "combined": combined,
        "betas": betas,
        "timings": None,  # wall-clock times differ per run; the CLI logs them
    }


#: The verdict columns of the CSV reports, in ``_verdict_dict``'s key order.
_VERDICT_COLUMNS = ["beta2", "beta2_sig", "gamma2", "gamma2_sig",
                    "gamma3", "gamma3_sig", "herding_overall", "herding_up",
                    "herding_down", "herding_any"]


def _verdict_fields(v: HerdingVerdict | None) -> list:
    """The ``_VERDICT_COLUMNS`` cells: the first values of ``_verdict_dict``."""
    if v is None:
        return [None] * len(_VERDICT_COLUMNS)
    return list(_verdict_dict(v).values())[:len(_VERDICT_COLUMNS)]


def _plot_bars(v: HerdingVerdict | None) -> tuple[float, float, float]:
    """The plotdata bars of a verdict: |t| of beta2, gamma2 and gamma3 where
    that coefficient shows herding (overall, up, down), else 0.0."""
    if v is None:
        return 0.0, 0.0, 0.0
    return (abs(v.t_beta2) if v.herding_overall else 0.0,
            abs(v.t_gamma2) if v.herding_up else 0.0,
            abs(v.t_gamma3) if v.herding_down else 0.0)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A report table: the header line, then one line per row, cells spelled
    by ``_fmt`` and joined by commas, each line ending in ``\\n``."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def _mst_csv(tree: SpanningTree | None) -> str:
    """``source,target,correlation,distance`` rows of a tree, in edge order."""
    edges = tree.edges if tree is not None else ()
    return _csv(["source", "target", "correlation", "distance"],
                ([e.a, e.b, 1.0 - e.weight ** 2 / 2.0, e.weight] for e in edges))


#: Names of the files the ``emit_*`` functions write, as ``Path.glob``
#: patterns. Each deletes every such file before it writes, so an output
#: directory holds one command's files, whichever command wrote it before.
_REPORT_PATTERNS = ("run.json", "verdicts.csv", "communities_*.csv",
                    "plotdata_*.csv", "mst_*.csv", "partition_*.csv", "csad.csv")


def _emit(out_dir: Path | str, files: Mapping[str, str]) -> list[Path]:
    """Delete the files in ``out_dir`` named like ``_REPORT_PATTERNS``, then
    write each ``name -> text`` of ``files`` there as UTF-8, so a write that
    fails part-way leaves no earlier run's file beside the new ones. Returns
    the written paths; IoFailure names the path that failed.
    """
    out_dir = Path(out_dir)
    target = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stale = [path for pattern in _REPORT_PATTERNS for path in out_dir.glob(pattern)
                 if path.is_file()]
        for target in stale:
            target.unlink()
        for name, text in files.items():
            target = out_dir / name
            target.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoFailure(target, exc) from None
    return [out_dir / name for name in files]


def emit_report(run: AnalysisRun, out_dir: Path | str) -> list[Path]:
    """Write run.json plus the per-sub-period CSV set; returns the paths.

    Outputs are byte-deterministic for identical input and config; the
    run.json ``timings`` key is always null. First every file in ``out_dir``
    named like a ``_REPORT_PATTERNS`` output, such as those of an earlier
    run with other sub-periods, is deleted; other files stay.
    """
    files = {"run.json": json.dumps(_run_json(run), sort_keys=True, indent=2) + "\n"}

    # verdicts.csv: one row per (vehicle, sub-period)
    vehicles = sorted({v for v, _ in run.per_vehicle}, key=lambda v: v.value)
    cells = [run.per_vehicle[v, sub] for v in vehicles for sub in run.combined
             if (v, sub) in run.per_vehicle]
    files["verdicts.csv"] = _csv(
        ["vehicle", "sub_period", "n_assets", "n_obs", *_VERDICT_COLUMNS,
         "skipped_reason"],
        ([c.vehicle.value, c.sub_period, c.n_assets, c.n_obs,
          *_verdict_fields(c.verdict), c.skipped_reason] for c in cells))

    sectors = sorted(Sector, key=lambda s: s.value)
    for sub, reports in run.combined.items():
        slug = file_slug(sub)
        files[f"communities_{slug}.csv"] = _csv(
            ["community_id", "size", "members", *_VERDICT_COLUMNS, "skipped_reason",
             *(f"sector_{s.value}" for s in sectors)],
            ([r.community_id, len(r.members), ";".join(r.members),
              *_verdict_fields(r.verdict), r.skipped_reason,
              *(float(r.sector_distribution.get(s, 0.0)) for s in sectors)]
             for r in reports))
        files[f"plotdata_{slug}.csv"] = _csv(
            ["community_id", "csad_abs_t", "up_abs_t", "down_abs_t"],
            ([r.community_id, *_plot_bars(r.verdict)] for r in reports))
        files[f"mst_{slug}.csv"] = _mst_csv(run.trees.get(sub))

    return _emit(out_dir, files)


def emit_communities(structures: Mapping[str, tuple], out_dir: Path | str) -> list[Path]:
    """Write ``partition_<sub>.csv`` and ``mst_<sub>.csv`` per sub-period of a
    ``community_structure`` result; stale files go as in ``emit_report``."""
    files: dict[str, str] = {}
    for sub, (tree, partition) in sorted(structures.items()):
        slug = file_slug(sub)
        assignment = partition.assignment if partition is not None else {}
        files[f"partition_{slug}.csv"] = _csv(
            ["ticker", "community_id"], sorted(assignment.items()))
        files[f"mst_{slug}.csv"] = _mst_csv(tree)
    return _emit(out_dir, files)


def emit_csad(series: CsadSeries, out_dir: Path | str) -> list[Path]:
    """Write ``csad.csv``, one row per return step; stale files go as in
    ``emit_report``."""
    table = _csv(["timestamp", "market_return", "csad"],
                 zip(series.grid, series.market_return.tolist(), series.csad.tolist()))
    return _emit(out_dir, {"csad.csv": table})
