"""Command line interface.

Subcommands:
  analyze      full run: per-vehicle verdicts, combined communities, betas
  communities  graph and partition exports only
  csad         market-return / dispersion series dump only

Each command reads its config files before any bar file, and writes its
output through one of ``pipeline``'s ``emit_*`` functions, which also
delete what an earlier command left in ``--out``.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import data as bundled_data
from .community import LOUVAIN_WEIGHTINGS
from .errors import ConfigError, DataError, HerdscanError
from .ingest import (
    DEFAULT_TIMEZONE,
    AssetMeta,
    Sector,
    Vehicle,
    bar_files,
    read_sector_map,
    read_subperiods,
)
from .pipeline import (
    DEFAULT_MIN_COMMUNITY_SIZE,
    community_structure,
    emit_communities,
    emit_csad,
    emit_report,
    load_panel,
    run_analysis,
    thread_cap,
)
from .returns import csad, log_returns

log = logging.getLogger("herdscan")

#: Metadata assumed for assets when no sector map is supplied (the
#: strictest missing-data threshold applies; sectors never reach output).
_UNLABELED = (Vehicle.STOCK, Sector.INDUSTRIALS)


def _add_common(sub: argparse.ArgumentParser, *, sectors_required: bool,
                subperiods: bool) -> None:
    sub.add_argument("--data-dir", required=True, type=Path,
                     help="directory with one bar CSV per asset")
    sub.add_argument("--sectors", required=sectors_required, type=Path,
                     default=None, help="sector map file: 'TICKER vehicle sector'")
    if subperiods:
        sub.add_argument("--subperiods", type=Path,
                         default=bundled_data.subperiods_path(),
                         help="sub-period file: 'name,start,end' (ISO dates)")
    sub.add_argument("--tz", default=DEFAULT_TIMEZONE,
                     help="time zone of the bar timestamps and trading window")
    sub.add_argument("--out", required=True, type=Path,
                     help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdscan",
        description="Herding detection over multi-asset intraday panels")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="full analysis run")
    _add_common(analyze, sectors_required=True, subperiods=True)
    analyze.add_argument("--vehicle", choices=[v.value for v in Vehicle] + ["all"],
                         default="all", help="restrict the panel to one vehicle")
    analyze.add_argument("--min-community-size", type=int,
                         default=DEFAULT_MIN_COMMUNITY_SIZE,
                         help="smallest community that still gets regressed")
    analyze.add_argument("--hac", action="store_true",
                         help="Newey-West standard errors")
    analyze.add_argument("--beta-proxy", type=str.upper, default=None,
                         metavar="TICKER",
                         help="market proxy ticker, any case "
                              "(default: equal-weight mean)")
    analyze.add_argument("--louvain-weights", choices=LOUVAIN_WEIGHTINGS,
                         default="unit", help="edge weighting for the community graph")

    communities = commands.add_parser(
        "communities", help="export spanning trees and partitions only")
    _add_common(communities, sectors_required=False, subperiods=True)
    communities.add_argument("--louvain-weights", choices=LOUVAIN_WEIGHTINGS,
                             default="unit")

    series = commands.add_parser(
        "csad", help="dump the market-return / dispersion series")
    _add_common(series, sectors_required=False, subperiods=False)
    return parser


def _sector_map(args, data_dir: Path) -> dict[str, AssetMeta]:
    if args.sectors is not None:
        return read_sector_map(args.sectors)
    return {t: AssetMeta(t, *_UNLABELED) for t in bar_files(data_dir)}


def _load(args):
    sector_map = _sector_map(args, args.data_dir)
    t0 = time.perf_counter()
    panel, decisions = load_panel(args.data_dir, sector_map, tz=args.tz)
    elapsed = time.perf_counter() - t0
    rejected = sorted(t for t, d in decisions.items() if not d.accepted)
    # load_panel parses the files on a pool of this size
    workers = min(thread_cap(), len(decisions))
    ffill, bfill = (np.count_nonzero(panel.fills == code) for code in (1, 2))
    log.info("loaded %d assets x %d bars in %.2fs on %d parse thread%s"
             " (%d rejected: %s), %d cells forward-filled and %d back-filled",
             len(panel.assets), panel.grid.size, elapsed,
             workers, "" if workers == 1 else "s",
             len(rejected), ",".join(rejected) or "-", ffill, bfill)
    for ticker in rejected:
        decision = decisions[ticker]
        log.warning("rejected %s (%s): %.3f%% of the grid missing, limit %g%%",
                    ticker, sector_map[ticker].vehicle.value,
                    100 * decision.missing_fraction, 100 * decision.threshold)
    return panel


def _cmd_analyze(args) -> int:
    subs = read_subperiods(args.subperiods)
    panel = _load(args)
    if args.vehicle != "all":
        wanted = Vehicle.parse(args.vehicle)
        tickers = [a.ticker for a in panel.assets if a.vehicle is wanted]
        if len(tickers) < 2:
            raise DataError(f"fewer than 2 assets for vehicle {args.vehicle}")
        panel = panel.restrict(tickers)
    run = run_analysis(
        panel, subs,
        min_community_size=args.min_community_size,
        louvain_weights=args.louvain_weights,
        beta_proxy=args.beta_proxy, hac=args.hac,
        config_extra={"tz": args.tz, "vehicle_filter": args.vehicle},
    )
    files = emit_report(run, args.out)
    log.info("timings: %s", {k: round(v, 3) for k, v in run.timings.items()})
    log.info("wrote %d files to %s", len(files), args.out)
    return 0


def _cmd_communities(args) -> int:
    subs = read_subperiods(args.subperiods)
    panel = _load(args)
    structures = community_structure(panel, subs,
                                     louvain_weights=args.louvain_weights)
    emit_communities(structures, args.out)
    log.info("wrote %d sub-period structures to %s", len(structures), args.out)
    return 0


def _cmd_csad(args) -> int:
    panel = _load(args)
    series = csad(log_returns(panel))
    emit_csad(series, args.out)
    log.info("wrote csad series (%d rows) to %s", len(series), args.out)
    return 0


_COMMANDS = {"analyze": _cmd_analyze, "communities": _cmd_communities,
             "csad": _cmd_csad}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"herdscan: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"herdscan: data error: {exc}", file=sys.stderr)
        return 3
    except (HerdscanError, OSError) as exc:
        print(f"herdscan: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
