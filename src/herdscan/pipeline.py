"""End-to-end orchestration: load, analyze per vehicle and per community,
and emit deterministic reports.

Two analysis passes run over every configured sub-period plus the implicit
"full" period. The per-vehicle pass fits the dispersion regressions on all
assets of one vehicle class at a time. The combined pass clusters the full
cross-vehicle panel (correlations, spanning tree, community detection) and
fits the regressions inside each community, using the community's own mean
return as the market return. One per-sub-period chain serves
``run_combined``, ``run_analysis`` and ``community_structure``.

Sub-periods are independent work units. ``HERDSCAN_THREADS`` (default: the
CPU count) caps the worker count, for the library and the CLI alike. Report
files are byte-deterministic for a given input and configuration, so
wall-clock timings stay out of them unless explicitly requested.
"""

from __future__ import annotations

import hashlib
import json
import os
import time as time_mod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .community import LOUVAIN_WEIGHTINGS, Partition, graph_from_tree, louvain
from .econometrics import (
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
    VehicleTooSmall,
)
from .graph import SpanningTree, mst, pearson_matrix, to_distance
from .ingest import (
    DEFAULT_TIMEZONE,
    DEFAULT_TRADING_WINDOW,
    FULL_PERIOD,
    AlignedPanel,
    AssetMeta,
    FilterDecision,
    Sector,
    SubPeriod,
    TradingWindow,
    Vehicle,
    _check_report_names,
    align,
    file_slug,
    filter_by_missing,
    load_bars,
    shared_grid,
    slice_panel,
)
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
    sub_names: tuple[str, ...]  # configured order, "full" last
    per_vehicle: dict[tuple[Vehicle, str], VehicleCell]
    combined: dict[str, tuple[CommunityReport, ...]]
    trees: dict[str, SpanningTree | None]
    beta_reports: dict[Vehicle, BetaReport]
    timings: dict[str, float] = field(default_factory=dict)


# --- parallel helpers --------------------------------------------------------

def thread_cap() -> int:
    """Worker count: ``HERDSCAN_THREADS`` (an integer >= 1), else the CPU count."""
    raw = os.environ.get("HERDSCAN_THREADS")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"HERDSCAN_THREADS={raw!r} is not an integer") from None
        if cap < 1:
            raise ConfigError("HERDSCAN_THREADS must be >= 1")
        return cap
    return os.cpu_count() or 1


def _map_units(fn: Callable, units: Sequence) -> list:
    workers = min(thread_cap(), len(units))
    if workers <= 1:
        return [fn(u) for u in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


# --- loading ------------------------------------------------------------------

def load_panel(data_dir: Path | str, sector_map: Mapping[str, AssetMeta], *,
               window: TradingWindow = DEFAULT_TRADING_WINDOW,
               tz: str = DEFAULT_TIMEZONE,
               thresholds: Mapping[Vehicle, float] | None = None,
               quorum: float = 0.5,
               ) -> tuple[AlignedPanel, dict[str, FilterDecision]]:
    """Load every ``*.csv`` in a directory and align the accepted assets.

    Files load one after another. The missing-data filter runs against a
    provisional grid built from all loaded series; the final grid is rebuilt
    from the accepted ones. The returned decisions include rejected tickers.
    """
    data_dir = Path(data_dir)
    files = sorted(data_dir.glob("*.csv"))
    if not files:
        raise DataError(f"no CSV files in {data_dir}")
    unmapped = sorted(p.stem.upper() for p in files
                      if p.stem.upper() not in sector_map)
    if unmapped:
        raise ConfigError(f"tickers missing from the sector map: {unmapped}")

    series = [load_bars(p, p.stem.upper(), tz=tz) for p in files]
    grid = shared_grid(series, window, quorum=quorum)
    decisions: dict[str, FilterDecision] = {}
    accepted = []
    for s in series:
        decision = filter_by_missing(s, grid, sector_map[s.ticker].vehicle,
                                     thresholds=thresholds)
        decisions[s.ticker] = decision
        if decision.accepted:
            accepted.append(s)
    if len(accepted) < 2:
        raise DataError("fewer than 2 assets pass the missing-data filter")
    metas = [sector_map[s.ticker] for s in accepted]
    return align(accepted, metas, window, quorum=quorum), decisions


def full_subperiod(panel: AlignedPanel) -> SubPeriod:
    first = panel.grid[0].astype("datetime64[D]").item()
    last = panel.grid[-1].astype("datetime64[D]").item()
    return SubPeriod(FULL_PERIOD, first, last)


def _with_full_period(panel: AlignedPanel,
                      subs: Sequence[SubPeriod]) -> list[SubPeriod]:
    """The sub-periods plus the full period, each with report files of its own."""
    _check_report_names(sub.name for sub in subs)
    return [*subs, full_subperiod(panel)]


# --- per-vehicle analysis -------------------------------------------------------

def _herding(cs: CsadSeries, *, min_obs: int, min_regime: int,
             hac: bool) -> tuple[HerdingVerdict | None, str | None]:
    """The herding verdict of a dispersion series, or why it was skipped."""
    try:
        fit4 = fit_csad_basic(cs, min_obs=min_obs, hac=hac)
        try:
            fit5: RegressionFit | None = fit_csad_updown(
                cs, min_obs=min_obs, min_regime=min_regime, hac=hac)
        except OneSidedSample:
            fit5 = None
        return verdict(fit4, fit5), None
    except _SKIP_ERRORS as exc:
        return None, _SKIP_REASONS[type(exc)]


def run_per_vehicle(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                    vehicles: Sequence[Vehicle] | None = None,
                    min_obs: int = 10, min_regime: int = 5, hac: bool = False,
                    ) -> dict[tuple[Vehicle, str], VehicleCell]:
    """Herding verdicts per (vehicle, sub-period), plus the full period.

    Explicitly requested vehicles must have at least 2 panel assets
    (VehicleTooSmall otherwise); with ``vehicles=None`` every vehicle
    present is analyzed and undersized ones become skipped cells.
    """
    by_vehicle: dict[Vehicle, list[str]] = {}
    for a in panel.assets:
        by_vehicle.setdefault(a.vehicle, []).append(a.ticker)

    explicit = vehicles is not None
    wanted = list(vehicles) if explicit else sorted(by_vehicle, key=lambda v: v.value)
    if explicit:
        for v in wanted:
            if len(by_vehicle.get(v, [])) < 2:
                raise VehicleTooSmall(v.value)

    all_subs = _with_full_period(panel, subs)
    # Each vehicle is restricted once; its sub-periods slice that panel.
    vehicle_panels = {v: panel.restrict(by_vehicle[v]) for v in wanted
                      if len(by_vehicle[v]) >= 2}

    def one(unit: tuple[Vehicle, SubPeriod]) -> VehicleCell:
        vehicle, sub = unit
        n_assets = len(by_vehicle[vehicle])
        vehicle_panel = vehicle_panels.get(vehicle)
        if vehicle_panel is None:
            return VehicleCell(vehicle, sub.name, None, "too_few_assets",
                               n_assets, 0)
        try:
            sub_panel = slice_panel(vehicle_panel, sub)
        except EmptySlice:
            return VehicleCell(vehicle, sub.name, None, "empty_slice", n_assets, 0)
        cs = csad(log_returns(sub_panel))
        v, reason = _herding(cs, min_obs=min_obs, min_regime=min_regime, hac=hac)
        return VehicleCell(vehicle, sub.name, v, reason, n_assets, len(cs))

    units = [(v, sub) for v in wanted for sub in all_subs]
    cells = _map_units(one, units)
    return {(c.vehicle, c.sub_period): c for c in cells}


# --- combined analysis -----------------------------------------------------------

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


def _sub_structure(panel: AlignedPanel, louvain_weights: str,
                   regress: Callable | None, sub: SubPeriod):
    """(name, spanning tree, partition, community reports) of one sub-period."""
    try:
        sub_panel = slice_panel(panel, sub)
    except EmptySlice:
        return sub.name, None, None, ()
    rp = log_returns(sub_panel)
    tree = mst(to_distance(pearson_matrix(rp)))
    partition = louvain(graph_from_tree(tree, louvain_weights))
    reports = regress(rp, partition, sub.name) if regress else ()
    return sub.name, tree, partition, reports


def _community_reports(rp: ReturnPanel, partition: Partition, sub_name: str, *,
                       min_community_size: int, min_obs: int, min_regime: int,
                       hac: bool) -> tuple[CommunityReport, ...]:
    """Sector mix and herding verdict of every community of a partition."""
    meta_by_ticker = {a.ticker: a for a in rp.assets}
    reports: list[CommunityReport] = []
    for cid, members in enumerate(partition.communities):
        tickers = tuple(sorted(members))
        mix = sector_distribution([meta_by_ticker[t] for t in tickers])
        if len(tickers) < min_community_size:
            v, reason = None, "below_min_size"
        else:
            v, reason = _herding(csad(rp.restrict(tickers)), min_obs=min_obs,
                                 min_regime=min_regime, hac=hac)
        reports.append(CommunityReport(sub_name, cid, tickers, v, mix, reason))
    return tuple(reports)


def _regressions(min_community_size: int, min_obs: int, min_regime: int,
                 hac: bool) -> Callable:
    """``_community_reports`` with its options checked and bound."""
    if min_community_size < 2:
        raise ConfigError("min_community_size must be at least 2")
    return partial(_community_reports, min_community_size=min_community_size,
                   min_obs=min_obs, min_regime=min_regime, hac=hac)


def _check_weighting(louvain_weights: str) -> None:
    """ConfigError unless ``louvain_weights`` names a known edge weighting."""
    if louvain_weights not in LOUVAIN_WEIGHTINGS:
        raise ConfigError(f"louvain_weights must be one of {LOUVAIN_WEIGHTINGS},"
                          f" got {louvain_weights!r}")


def _combined(panel: AlignedPanel, subs: Sequence[SubPeriod], louvain_weights: str,
              regress: Callable | None = None) -> list[tuple]:
    """``_sub_structure`` of every sub-period and the full period."""
    one = partial(_sub_structure, panel, louvain_weights, regress)
    return _map_units(one, _with_full_period(panel, subs))


def run_combined(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                 min_community_size: int = DEFAULT_MIN_COMMUNITY_SIZE,
                 louvain_weights: str = "unit",
                 min_obs: int = 10, min_regime: int = 5, hac: bool = False,
                 ) -> dict[str, tuple[CommunityReport, ...]]:
    """Community detection plus per-community herding for every sub-period."""
    _check_weighting(louvain_weights)
    regress = _regressions(min_community_size, min_obs, min_regime, hac)
    if len(panel.assets) < 3:
        raise DataError("combined analysis needs at least 3 assets")
    return {name: reports for name, _, _, reports
            in _combined(panel, subs, louvain_weights, regress)}


def community_structure(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                        louvain_weights: str = "unit",
                        ) -> dict[str, tuple[SpanningTree | None, Partition | None]]:
    """Spanning tree and partition only (no regressions) per sub-period."""
    _check_weighting(louvain_weights)
    return {name: (tree, partition) for name, tree, partition, _
            in _combined(panel, subs, louvain_weights)}


# --- betas ------------------------------------------------------------------------

EQUAL_WEIGHT_PROXY = "equal-weight market"


def compute_beta_reports(panel: AlignedPanel, *, proxy: str | None = None,
                         min_obs: int = 10) -> dict[Vehicle, BetaReport]:
    """CAPM betas per vehicle over the full period, vs one chosen proxy."""
    rp = log_returns(panel)
    if proxy is not None:
        if proxy not in rp.tickers:
            raise ConfigError(f"beta proxy {proxy!r} not in the panel")
        proxy_returns = rp.row(proxy)
        label = proxy
    else:
        proxy_returns = rp.returns.mean(axis=0)
        label = EQUAL_WEIGHT_PROXY

    out: dict[Vehicle, BetaReport] = {}
    for vehicle in sorted({a.vehicle for a in panel.assets}, key=lambda v: v.value):
        betas = {a.ticker: capm_beta(returns, proxy_returns, min_obs=min_obs)
                 for a, returns in zip(rp.assets, rp.returns)
                 if a.vehicle is vehicle}
        out[vehicle] = build_beta_report(betas, label)
    return out


# --- full run ----------------------------------------------------------------------

def run_analysis(panel: AlignedPanel, subs: Sequence[SubPeriod], *,
                 vehicles: Sequence[Vehicle] | None = None,
                 min_community_size: int = DEFAULT_MIN_COMMUNITY_SIZE,
                 louvain_weights: str = "unit",
                 beta_proxy: str | None = None,
                 min_obs: int = 10, min_regime: int = 5, hac: bool = False,
                 config_extra: Mapping | None = None) -> AnalysisRun:
    """Run both analysis passes plus beta reports and collect timings."""
    _check_weighting(louvain_weights)
    regress = _regressions(min_community_size, min_obs, min_regime, hac)
    config = {
        "schema_version": SCHEMA_VERSION,
        "n_assets": len(panel.assets),
        "n_timestamps": int(panel.grid.size),
        "first_timestamp": str(panel.grid[0]),
        "last_timestamp": str(panel.grid[-1]),
        "subperiods": [{"name": s.name, "start": s.start.isoformat(),
                        "end": s.end.isoformat()} for s in subs],
        "vehicles": sorted(v.value for v in vehicles) if vehicles else "all",
        "min_community_size": min_community_size,
        "louvain_weights": louvain_weights,
        "beta_proxy": beta_proxy or EQUAL_WEIGHT_PROXY,
        "min_obs": min_obs,
        "min_regime": min_regime,
        "hac": hac,
    }
    if config_extra:
        config.update(config_extra)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()

    timings: dict[str, float] = {}
    t0 = time_mod.perf_counter()
    per_vehicle = run_per_vehicle(panel, subs, vehicles=vehicles, min_obs=min_obs,
                                  min_regime=min_regime, hac=hac)
    timings["per_vehicle"] = time_mod.perf_counter() - t0

    t1 = time_mod.perf_counter()
    results = _combined(panel, subs, louvain_weights, regress)
    combined = {name: reports for name, _, _, reports in results}
    trees = {name: tree for name, tree, _, _ in results}
    timings["combined"] = time_mod.perf_counter() - t1

    t2 = time_mod.perf_counter()
    beta_reports = compute_beta_reports(panel, proxy=beta_proxy, min_obs=min_obs)
    timings["betas"] = time_mod.perf_counter() - t2
    timings["total"] = time_mod.perf_counter() - t0

    return AnalysisRun(
        config=config, config_digest=digest,
        sub_names=tuple(combined),
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


def _run_json(run: AnalysisRun, include_timings: bool) -> dict:
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
        "timings": dict(run.timings) if include_timings else None,
    }


_VERDICT_COLUMNS = ["beta2", "beta2_sig", "gamma2", "gamma2_sig",
                    "gamma3", "gamma3_sig", "herding_overall", "herding_up",
                    "herding_down", "herding_any"]


def _verdict_fields(v: HerdingVerdict | None) -> list[str]:
    if v is None:
        return [""] * len(_VERDICT_COLUMNS)
    return [_fmt(v.beta2), v.beta2_significance.value,
            _fmt(v.gamma2), v.gamma2_significance.value,
            _fmt(v.gamma3), v.gamma3_significance.value,
            _fmt(v.herding_overall), _fmt(v.herding_up),
            _fmt(v.herding_down), _fmt(v.herding_any)]


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(path, exc) from None


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoFailure(path, exc) from None


def _mst_csv(tree: SpanningTree | None) -> str:
    """``source,target,correlation,distance`` rows of a tree, in edge order."""
    lines = ["source,target,correlation,distance"]
    if tree is not None:
        for e in tree.edges:
            corr = 1.0 - e.weight ** 2 / 2.0
            lines.append(",".join([e.a, e.b, _fmt(corr), _fmt(e.weight)]))
    return "\n".join(lines) + "\n"


#: Names of the files ``emit_report`` writes, as ``Path.glob`` patterns, and
#: the ``partition_*.csv`` that ``cli communities`` writes next to its
#: ``mst_*.csv``, so that a ``communities`` output set is removed whole.
_REPORT_PATTERNS = ("run.json", "verdicts.csv", "communities_*.csv",
                    "plotdata_*.csv", "mst_*.csv", "partition_*.csv")


def _remove_stale_reports(out_dir: Path, written: Sequence[Path]) -> None:
    """Delete the report-named files in ``out_dir`` that are not in ``written``."""
    keep = set(written)
    for pattern in _REPORT_PATTERNS:
        for path in out_dir.glob(pattern):
            if path not in keep and path.is_file():
                try:
                    path.unlink()
                except OSError as exc:
                    raise IoFailure(path, exc) from None


def emit_report(run: AnalysisRun, out_dir: Path | str, *,
                include_timings: bool = False) -> list[Path]:
    """Write run.json plus the per-sub-period CSV set.

    Outputs are byte-deterministic for identical input and config; the
    run.json ``timings`` key stays null unless ``include_timings`` is set,
    which trades reproducibility for profiling data. Afterwards the files
    in ``out_dir`` named like report files (``run.json``, ``verdicts.csv``,
    ``communities_*.csv``, ``plotdata_*.csv``, ``mst_*.csv``) or like the
    ``partition_*.csv`` of ``cli communities`` that this run did not write,
    such as those of an earlier run with other sub-periods, are deleted;
    every other file is left alone.
    """
    out_dir = Path(out_dir)
    _make_dir(out_dir)
    written: list[Path] = []

    run_path = out_dir / "run.json"
    _write(run_path, json.dumps(_run_json(run, include_timings),
                                sort_keys=True, indent=2) + "\n")
    written.append(run_path)

    # verdicts.csv: one row per (vehicle, sub-period)
    lines = ["vehicle,sub_period,n_assets,n_obs," + ",".join(_VERDICT_COLUMNS)
             + ",skipped_reason"]
    vehicles = sorted({v for v, _ in run.per_vehicle}, key=lambda v: v.value)
    for vehicle in vehicles:
        for sub in run.sub_names:
            cell = run.per_vehicle.get((vehicle, sub))
            if cell is None:
                continue
            row = [vehicle.value, sub, str(cell.n_assets), str(cell.n_obs)]
            row += _verdict_fields(cell.verdict)
            row.append(cell.skipped_reason or "")
            lines.append(",".join(row))
    path = out_dir / "verdicts.csv"
    _write(path, "\n".join(lines) + "\n")
    written.append(path)

    sectors = [s.value for s in sorted(Sector, key=lambda s: s.value)]
    for sub in run.sub_names:
        slug = file_slug(sub)
        reports = run.combined.get(sub, ())

        lines = ["community_id,size,members," + ",".join(_VERDICT_COLUMNS)
                 + ",skipped_reason," + ",".join(f"sector_{s}" for s in sectors)]
        for r in reports:
            row = [str(r.community_id), str(len(r.members)), ";".join(r.members)]
            row += _verdict_fields(r.verdict)
            row.append(r.skipped_reason or "")
            row += [_fmt(float(r.sector_distribution.get(s, 0.0)))
                    for s in sorted(Sector, key=lambda s: s.value)]
            lines.append(",".join(row))
        path = out_dir / f"communities_{slug}.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)

        lines = ["community_id,csad_abs_t,up_abs_t,down_abs_t"]
        for r in reports:
            v = r.verdict
            grey = abs(v.t_beta2) if v and v.herding_overall else 0.0
            green = abs(v.t_gamma2) if v and v.herding_up else 0.0
            red = abs(v.t_gamma3) if v and v.herding_down else 0.0
            lines.append(",".join([str(r.community_id), _fmt(grey),
                                   _fmt(green), _fmt(red)]))
        path = out_dir / f"plotdata_{slug}.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)

        path = out_dir / f"mst_{slug}.csv"
        _write(path, _mst_csv(run.trees.get(sub)))
        written.append(path)

    _remove_stale_reports(out_dir, written)
    return written
