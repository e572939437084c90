"""Smoke test of the benchmark: every workload at its smallest size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must pass its correctness gate and print every metric
``BENCHMARK.json`` names, with its unit; a damaged reference must fail
the run without numbers; and a directory holding only the benchmark
(no EasyView sources) must fail too.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT,
         corrupt: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("PERFBENCH_CORRUPT_REFERENCE", None)
    if corrupt:
        env["PERFBENCH_CORRUPT_REFERENCE"] = "1"
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def _assert_metrics(result: dict, declared: list) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = metrics[metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    result = _result(_run(workload, trace=0))
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload: str) -> None:
    _assert_metrics(_result(_run(workload, trace=1)),
                    BENCHMARK["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_without_numbers(workload: str) -> None:
    proc = _run(workload, trace=0, corrupt=True)
    assert proc.returncode == 3, proc.stderr[-3000:]
    assert "correctness check failed" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
