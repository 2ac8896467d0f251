"""The package's public names, and every package attribute the benchmark
looks up, exist: a missing one would otherwise show only in a traced
benchmark run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import herdscan

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``TARGETS`` in ``bench/tracer.py``,
    read from its source without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"no TARGETS list in {TRACER}")


#: Looked up outside ``TARGETS``: ``bench/run.py`` records ``thread_cap()``
#: and the tracer swaps the pool class.
OTHER_LOOKUPS = [("herdscan.pipeline", "thread_cap"),
                 ("herdscan.pipeline", "ThreadPoolExecutor")]


def test_all_names_resolve_once():
    assert len(herdscan.__all__) == len(set(herdscan.__all__))
    assert [n for n in herdscan.__all__ if not hasattr(herdscan, n)] == []


@pytest.mark.parametrize("module,attr", tracer_targets() + OTHER_LOOKUPS,
                         ids=lambda v: v)
def test_bench_lookup_exists(module, attr):
    # the tracer replaces the attribute in its owner's own namespace
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in vars(owner)
