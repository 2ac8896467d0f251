"""Span tracing of herdscan's layers from outside the package.

``Tracer.installed()`` replaces the public functions that ``herdscan.pipeline``
and ``herdscan.cli`` call, at the module attributes they look them up by,
with wrappers that record one span per call: name, start, end, thread CPU
time, parent span and thread. The package's thread pool is swapped for one
that hands the submitting span to its workers, which do not inherit the
caller's context. Spans and counters stay in memory until ``metrics`` and
``dump`` read them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None
    thread: int


def _emit_counts(tracer: "Tracer", paths) -> None:
    tracer.count("pipeline.emit.files", len(paths))
    tracer.count("pipeline.emit.bytes", sum(p.stat().st_size for p in paths))


#: (module path, attribute, span name, counter hook on the result). Louvain
#: looks ``local_move_phase`` up in its own module, once per level.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("herdscan.cli", "load_panel", "pipeline.load_panel", None),
    ("herdscan.cli", "run_analysis", "pipeline.run_analysis", None),
    ("herdscan.cli", "emit_report", "pipeline.emit_report", _emit_counts),
    ("herdscan.pipeline", "run_analysis", "pipeline.run_analysis", None),
    ("herdscan.pipeline", "emit_report", "pipeline.emit_report", _emit_counts),
    ("herdscan.pipeline", "run_per_vehicle", "pipeline.run_per_vehicle", None),
    ("herdscan.pipeline", "compute_beta_reports",
     "pipeline.compute_beta_reports", None),
    ("herdscan.pipeline", "load_bars", "ingest.load_bars",
     lambda t, s: t.count("ingest.rows_parsed", len(s))),
    ("herdscan.pipeline", "shared_grid", "ingest.shared_grid", None),
    ("herdscan.pipeline", "filter_by_missing", "ingest.filter_by_missing",
     lambda t, d: t.count("ingest.assets_rejected", int(not d.accepted))),
    ("herdscan.pipeline", "align", "ingest.align",
     lambda t, p: t.count("ingest.fill_cells", len(p.fill_log))),
    ("herdscan.pipeline", "slice_panel", "ingest.slice_panel", None),
    ("herdscan.ingest", "AlignedPanel.restrict", "ingest.restrict", None),
    ("herdscan.pipeline", "log_returns", "returns.log_returns", None),
    ("herdscan.pipeline", "csad", "returns.csad", None),
    ("herdscan.pipeline", "fit_csad_basic", "econometrics.fit_csad_basic", None),
    ("herdscan.pipeline", "fit_csad_updown", "econometrics.fit_csad_updown", None),
    ("herdscan.pipeline", "verdict", "econometrics.verdict", None),
    ("herdscan.pipeline", "capm_beta", "econometrics.capm_beta", None),
    ("herdscan.pipeline", "pearson_matrix", "graph.pearson_matrix", None),
    ("herdscan.pipeline", "to_distance", "graph.to_distance", None),
    ("herdscan.pipeline", "mst", "graph.mst",
     lambda t, tree: t.maximum("graph.mst.max_nodes", len(tree.nodes))),
    ("herdscan.pipeline", "graph_from_tree", "community.graph_from_tree", None),
    ("herdscan.pipeline", "louvain", "community.louvain",
     lambda t, p: t.count("community.communities", len(p.communities))),
    ("herdscan.community", "local_move_phase", "community.local_move_phase", None),
    ("herdscan.cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, n: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), n)

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = time.thread_time(), time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, c1 - c0, parent,
                                       threading.get_ident()))
            if hook is not None:
                hook(self, result)
            return result
        return traced

    def pool_class(self) -> type:
        tracer = self

        class ParentPassingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def adopted():
                    tracer._local.root = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.root = None
                return super().submit(adopted)
        return ParentPassingPool

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, hook))
            pipeline = importlib.import_module("herdscan.pipeline")
            saved.append((pipeline, "ThreadPoolExecutor", pipeline.ThreadPoolExecutor))
            pipeline.ThreadPoolExecutor = self.pool_class()
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    # --- reading --------------------------------------------------------------

    def totals(self, name: str) -> tuple[float, float, int]:
        """Summed wall time, summed thread CPU time and call count of a span name."""
        wall = cpu = 0.0
        calls = 0
        for s in self.spans:
            if s.name == name:
                wall += s.end - s.start
                cpu += s.cpu
                calls += 1
        return wall, cpu, calls

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by their BENCHMARK.json names."""
        out: dict[str, float] = {}

        def layer(name: str, *measures: str) -> None:
            wall, cpu, calls = self.totals(name)
            values = {"wall_s": wall, "cpu_s": cpu, "wait_s": wall - cpu,
                      "calls": calls}
            for m in measures:
                out[f"{name}.{m}"] = values[m]

        layer("ingest.load_bars", "wall_s", "cpu_s", "wait_s", "calls")
        for name in ("ingest.shared_grid", "ingest.filter_by_missing", "ingest.align"):
            layer(name, "wall_s")
        for name in ("ingest.slice_panel", "ingest.restrict",
                     "returns.log_returns", "returns.csad",
                     "econometrics.fit_csad_basic", "econometrics.fit_csad_updown",
                     "econometrics.capm_beta"):
            layer(name, "wall_s", "calls")
        for name in ("graph.pearson_matrix", "graph.to_distance",
                     "community.graph_from_tree"):
            layer(name, "wall_s")
        layer("graph.mst", "wall_s", "cpu_s", "wait_s", "calls")
        layer("community.louvain", "wall_s", "cpu_s", "calls")
        for name in ("pipeline.load_panel", "pipeline.run_per_vehicle",
                     "pipeline.compute_beta_reports", "pipeline.emit_report"):
            layer(name, "wall_s")

        analysis = self.totals("pipeline.run_analysis")[0]
        out["pipeline.combined.wall_s"] = (
            analysis - out["pipeline.run_per_vehicle.wall_s"]
            - out["pipeline.compute_beta_reports.wall_s"]) if analysis else 0.0
        main = self.totals("cli.main")[0]
        out["cli.overhead_s"] = (
            main - out["pipeline.load_panel.wall_s"] - analysis
            - out["pipeline.emit_report.wall_s"]) if main else 0.0

        out["community.levels"] = self.totals("community.local_move_phase")[2]
        verdicts = self.totals("econometrics.verdict")[2]
        attempts = out["econometrics.fit_csad_basic.calls"]
        out["econometrics.verdict_ratio"] = verdicts / attempts if attempts else 0.0
        for name in ("ingest.rows_parsed", "ingest.assets_rejected",
                     "ingest.fill_cells", "graph.mst.max_nodes",
                     "community.communities",
                     "pipeline.emit.files", "pipeline.emit.bytes"):
            out[name] = self.counters.get(name, 0)
        return out

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        threads = {}
        return [{"id": s.id, "name": s.name, "start": s.start - t0,
                 "end": s.end - t0, "cpu": s.cpu, "parent": s.parent,
                 "thread": threads.setdefault(s.thread, len(threads))}
                for s in sorted(self.spans, key=lambda s: s.id)]
