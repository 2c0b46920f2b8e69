"""Smoke test of the benchmark on tiny inputs: output format, determinism, refusal.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, section):
    metrics = result_of(run_bench(workload, trace))["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(isinstance(m["value"], float) for m in metrics.values())


@pytest.mark.parametrize("workload", ["fit-cv", "rank-small"])
def test_traced_counts_repeat_for_a_seed_and_change_with_it(workload):
    def counts(seed):
        metrics = result_of(run_bench(workload, 1, seed))["metrics"]
        return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}

    first = counts(1)
    assert counts(1) == first
    assert counts(2) != first


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("rank-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
