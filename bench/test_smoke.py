"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q

They check that every metric named in BENCHMARK.json is printed with its
unit, that each output check fires on a corrupted report, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import check_report  # noqa: E402
from run import Runs  # noqa: E402
from workloads import WORKLOADS, prepare_ingest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
           {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.fixture
def tiny_ingest(tmp_path):
    return prepare_ingest(5, tmp_path / "inputs",
                          **WORKLOADS["ingest-222x13k"][2])


def test_a_correct_report_passes(tiny_ingest, tmp_path):
    runs = Runs(tiny_ingest, tmp_path)
    runs.once()
    runs.once()
    assert runs.failed == 0


def corrupt_after(prepared, calls: int, damage):
    """The same workload, with ``damage`` applied to the report of call ``calls``."""
    seen = []

    def run(out: Path) -> None:
        prepared.run(out)
        seen.append(out)
        if len(seen) == calls:
            damage(out)
    return dataclasses.replace(prepared, run=run)


def flip_byte(out: Path) -> None:
    path = out / "verdicts.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_a_flipped_byte_fails_the_run(tiny_ingest, tmp_path):
    runs = Runs(corrupt_after(tiny_ingest, 2, flip_byte), tmp_path)
    runs.once()
    runs.once()
    assert runs.failed == 1


def test_a_missing_file_fails_the_run(tiny_ingest, tmp_path):
    damage = lambda out: (out / "mst_full.csv").unlink()  # noqa: E731
    runs = Runs(corrupt_after(tiny_ingest, 1, damage), tmp_path)
    runs.once()
    assert runs.failed == 1


def test_a_wrong_rejected_set_fails_the_check(tiny_ingest, tmp_path):
    out = tmp_path / "out"
    tiny_ingest.run(out)
    exp = tiny_ingest.expected
    assert check_report(out, exp) == []
    moved = exp.tickers[0]
    wrong = dataclasses.replace(exp, tickers=exp.tickers[1:],
                                prices=exp.prices[1:],
                                rejected=exp.rejected | {moved})
    assert any("rejected" in p for p in check_report(out, wrong))


def test_a_wrong_tree_fails_the_check(tiny_ingest, tmp_path):
    out = tmp_path / "out"
    tiny_ingest.run(out)
    path = out / "mst_full.csv"
    lines = path.read_text().splitlines()
    source, target, corr, dist = lines[1].split(",")
    lines[1] = ",".join([source, target, corr, repr(float(dist) + 1e-6)])
    path.write_text("\n".join(lines) + "\n")
    assert any("total distance" in p
               for p in check_report(out, tiny_ingest.expected))


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "ingest-222x13k", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
