"""End-to-end run: bar CSVs on disk to a deterministic report directory.

Writes a small three-vehicle dataset (stocks, ETFs, cryptos around one
factor each), a sector map, and a sub-period file into a temporary
directory, then drives the same code path as `herdscan analyze` and walks
through the emitted artifacts. The directory is removed when the demo ends.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from herdscan import read_sector_map, read_subperiods
from herdscan.pipeline import emit_report, load_panel, run_analysis


def write_dataset(root: Path, seed: int = 3, n_bars: int = 900) -> None:
    rng = np.random.default_rng(seed)
    bars = root / "bars"
    bars.mkdir()

    # 13 thirty-minute bars per business day, 09:30 .. 15:30
    days = np.busday_offset(np.datetime64("2019-04-01"),
                            np.arange(-(-n_bars // 13)), roll="forward")
    offsets = (9 * 60 + 30 + 30 * np.arange(13)).astype("timedelta64[m]")
    grid = (days.astype("datetime64[m]")[:, None] + offsets).ravel()[:n_bars]
    stamps = [str(t).replace("T", " ") for t in grid]

    groups = {"stock": ["AAA", "BBB", "CCC", "DDD"],
              "etf": ["EEE", "FFF", "GGG"],
              "crypto": ["HHH", "III", "JJJ"]}
    sector_of = {"stock": "Financials", "etf": "UsEtf", "crypto": "Crypto"}
    lines = []
    for vehicle, tickers in groups.items():
        factor = rng.normal(0, 0.004, n_bars - 1)
        for ticker in tickers:
            noise = rng.normal(0, 0.003, n_bars - 1)
            prices = 100 * np.exp(np.concatenate([[0], factor + noise]).cumsum())
            rows = [f"{ts},{p:.6f}" for ts, p in zip(stamps, prices)]
            (bars / f"{ticker}.csv").write_text("\n".join(rows) + "\n")
            lines.append(f"{ticker} {vehicle} {sector_of[vehicle]}\n")
    (root / "sectors.txt").write_text("".join(lines))
    (root / "subperiods.csv").write_text(
        "spring,2019-04-01,2019-05-15\nsummer,2019-05-16,2019-07-31\n")


def main(scratch: Path) -> None:
    write_dataset(scratch)
    print(f"dataset written under {scratch}")

    sector_map = read_sector_map(scratch / "sectors.txt")
    subs = read_subperiods(scratch / "subperiods.csv")
    panel, decisions = load_panel(scratch / "bars", sector_map)
    print(f"panel: {len(panel.assets)} assets x {panel.grid.size} bars, "
          f"{len(panel.fill_log)} filled cells")

    run = run_analysis(panel, subs, min_community_size=3)
    files = emit_report(run, scratch / "report")
    print(f"report: {len(files)} files in {scratch / 'report'}")

    print("\nper-vehicle verdicts:")
    for (vehicle, sub), cell in sorted(run.per_vehicle.items(),
                                       key=lambda kv: (kv[0][0].value,
                                                       kv[0][1])):
        if cell.verdict is None:
            print(f"  {vehicle.value:>6} {sub:<8} skipped: {cell.skipped_reason}")
        else:
            v = cell.verdict
            print(f"  {vehicle.value:>6} {sub:<8} herding_any={v.herding_any} "
                  f"(beta2 {v.beta2:+.3f})")

    doc = json.loads((scratch / "report" / "run.json").read_text())
    print(f"\nrun.json: schema {doc['schema_version']}, "
          f"config digest {doc['config']['digest'][:12]}..., "
          f"{len(doc['combined'])} sub-periods in the combined section")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="herdscan_demo_") as tmp:
        main(Path(tmp))
