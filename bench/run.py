"""herdscan benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ingest-222x13k --seed 1 --seconds 20 --trace 0

Runs the workload's analysis over and over for ``--seconds`` seconds (at
least once) in this process, with ``HERDSCAN_THREADS`` unset, checks every
report and prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: median run time,
cells per second, process CPU per run, peak RSS, the share of runs that
passed every check, and the set-up time of a fresh interpreter. With
``--trace 1`` the untraced runs are followed by one traced run and the
graph-layer scale points, and the metrics are the per-layer ones; the spans
go to ``.bench_work/traces/``. The line before the result records the
machine, the configuration and the report's SHA-256.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
SCALE_POINTS = (500, 1000, 2000)

#: What a CLI run pays before any work: import the package and read the
#: bundled configuration, timed inside a fresh interpreter.
SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import herdscan
from herdscan.data import sector_map_path, subperiods_path
from herdscan.ingest import read_sector_map, read_subperiods
read_sector_map(sector_map_path())
read_subperiods(subperiods_path())
print(time.perf_counter() - t0)
"""


def setup_seconds(samples: int) -> float:
    env = {k: v for k, v in os.environ.items() if k != "HERDSCAN_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy
    from herdscan.pipeline import thread_cap
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10, check=True).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "thread_cap": thread_cap(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed, "sizes": sizes}


class Runs:
    """Timed runs of one prepared workload, each checked as it finishes."""

    def __init__(self, prepared, work: Path):
        self.prepared = prepared
        self.work = work
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.failed = 0
        self.digest: str | None = None
        self.first_problems: list[str] = []

    def once(self) -> float:
        from checks import check_report, report_digest

        out = self.work / f"out{len(self.walls)}"
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            self.prepared.run(out)
            problems = []
        except Exception:  # any failure of the program fails this run
            problems = [traceback.format_exc()]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if not problems:
            # The first report is checked in full; later ones must match its
            # bytes, and share its verdict when they do.
            try:
                digest = report_digest(out)
                if self.digest is None:
                    self.first_problems = check_report(out, self.prepared.expected)
                    self.digest = digest
                if digest == self.digest:
                    problems = self.first_problems
                else:
                    problems = [f"report bytes differ: {digest} != {self.digest}"]
            except Exception:  # a report the checks cannot read fails too
                problems = [traceback.format_exc()]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"run {len(self.walls)} failed:", *problems, sep="\n  ",
                  file=sys.stderr)
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall

    def measure(self, seconds: float) -> None:
        """Run once, then again while another run should end within ``seconds``."""
        start = time.perf_counter()
        self.once()
        while (time.perf_counter() - start + statistics.median(self.walls)
               <= seconds):
            self.once()


def scale_points(seed: int, shrink: int = 1) -> dict[str, float]:
    """pearson_matrix, mst and louvain times on the graph generator's panel.

    ``shrink`` divides the asset counts and bars (named by the full sizes),
    for the smoke tests.
    """
    from herdscan.community import graph_from_tree, louvain
    from herdscan.graph import mst, pearson_matrix, to_distance
    from herdscan.returns import log_returns
    from workloads import graph_panel

    out = {}
    for n in SCALE_POINTS:
        rp = log_returns(graph_panel(seed, n // shrink, 2600 // shrink)[0])
        t0 = time.perf_counter()
        cm = pearson_matrix(rp)
        t1 = time.perf_counter()
        tree = mst(to_distance(cm))
        t2 = time.perf_counter()
        graph = graph_from_tree(tree)
        t3 = time.perf_counter()
        louvain(graph)
        t4 = time.perf_counter()
        out[f"graph.pearson_matrix.n{n}_s"] = t1 - t0
        out[f"graph.mst.n{n}_s"] = t2 - t1
        out[f"community.louvain.n{n}_s"] = t4 - t3
        del rp, cm, tree, graph
        gc.collect()
    return out


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    args = parser.parse_args(argv)

    if not (SRC / "herdscan" / "__init__.py").is_file():
        print(f"bench: no herdscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ.pop("HERDSCAN_THREADS", None)
    import herdscan
    if Path(herdscan.__file__).resolve().parent != SRC / "herdscan":
        print(f"bench: imported herdscan from {herdscan.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    setup = None if args.trace else setup_seconds(1 if args.tiny else SETUP_SAMPLES)
    prepare, full_size, tiny_size = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        prepared = prepare(args.seed, work, **(tiny_size if args.tiny else full_size))
        runs = Runs(prepared, work)
        runs.measure(args.seconds)
        run_s = statistics.median(runs.walls)
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            with tracer.installed():
                traced_s = runs.once()
            values = tracer.metrics()
            values["trace.overhead_s"] = traced_s - run_s
            values["trace.spans"] = len(tracer.spans)
            values.update(scale_points(args.seed, 25 if args.tiny else 1))
        else:
            values = {
                "run_s": run_s,
                "cells_per_s": prepared.cells / run_s,
                "cpu_s": statistics.median(runs.cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - runs.failed / len(runs.walls),
                "setup_s": setup,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    config = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "walls_s": runs.walls, "cpus_s": runs.cpus,
              "report_sha256": runs.digest,
              "machine": machine(args.seed, prepared.sizes)}
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"config": config, "metrics": values, "spans": tracer.dump()}))
    print(json.dumps({"config": config}))
    print(json.dumps({"correct": runs.failed == 0, "attempted": len(runs.walls),
                      "failed": runs.failed, "metrics": with_units(values, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
