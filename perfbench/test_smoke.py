"""Smoke tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import worker

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

worker.import_library()


def smoke(name, trace):
    return worker.run_workload(name, seed=7, seconds=0, trace=trace,
                               scale="smoke")


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    result = smoke(name, trace)
    assert result["correct"], result["wrong"]
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_a_wrong_expected_value_fails_the_correctness_check(monkeypatch):
    monkeypatch.setattr(gen, "balanced_weight",
                        lambda depth, leaf_chain: -1)
    result = smoke("big-trees", False)
    assert not result["correct"]
    assert any("weight of a" in message for message in result["wrong"])


def test_the_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-trees",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-trees",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
