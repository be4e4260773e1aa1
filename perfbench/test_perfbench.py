"""Smoke test of the benchmark itself, at a tiny size.

Runs every workload named in ``BENCHMARK.json`` untraced and traced,
and asserts that each declared metric is printed with its unit and that
the output checks ran and passed.  Also pins the failure modes: a
checkout holding only the benchmark exits non-zero without a result,
and the simulation output check catches an inconsistent result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_simulation_check_catches_inconsistent_result(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import simround

    result = SimpleNamespace(
        workflow="rnaseq", wastage_by_task_type=lambda: {"a": 1.0, "b": 2.0}
    )
    good = {"tasks": 4, "wastage_gbh": 3.0, "failures": 1,
            "failure_distribution": [1, 0]}
    assert simround._check(result, good, expected_tasks=4) == []
    bad = {**good, "tasks": 3, "wastage_gbh": 5.0, "failures": 2}
    assert len(simround._check(result, bad, expected_tasks=4)) == 3
