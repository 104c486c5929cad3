"""Smoke test of the benchmark itself.

Every workload runs at tiny size and must print every metric named in
BENCHMARK.json with its unit; corrupted outputs must count as failed; and a
directory without the package sources must be refused.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import worker  # noqa: E402
import workloads  # noqa: E402
from faircut.graph import VertexCut  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in doc["metrics"].values())


class _Corrupting:
    """A workload whose outputs are damaged before they are checked."""

    def __init__(self, inner, damage):
        self.inner, self.damage = inner, damage

    def run(self, inst):
        return self.damage(inst, self.inner.run(inst))

    def check(self, inst, output):
        return self.inner.check(inst, output)


def _sink_inside(inst, result):
    return dataclasses.replace(result, cut=VertexCut(result.cut.side | {inst.t}, source=inst.s))


def _alpha_inflated(inst, result):
    return dataclasses.replace(result, achieved_alpha=2.0 * result.achieved_alpha + 1.0)


def _alpha_deflated(inst, output):
    alpha, estimate = output
    return alpha / 2.0 if alpha > 1.5 else 0.5, estimate


def _estimate_lost(inst, output):
    return output[0], math.nan


@pytest.mark.parametrize(
    "name, damage",
    [("small-batch", _sink_inside), ("small-batch", _alpha_inflated),
     ("certify", _alpha_deflated), ("certify", _estimate_lost)],
)
def test_corrupted_output_counts_as_failed(name, damage):
    workload = workloads.make(name, tiny=True)
    pool = workload.setup(5)
    honest = worker.measure(workload, pool, count=len(pool))
    assert honest.failed == 0
    damaged = worker.measure(_Corrupting(workload, damage), pool, count=len(pool))
    assert damaged.failed == len(pool)


def test_refused_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
