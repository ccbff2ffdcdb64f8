"""Smoke test for the benchmark at a tiny run length.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GENERATED = ["deep_queue", "wide_pipe"]


@functools.lru_cache(maxsize=None)
def invoke(workload: str, seed: int, trace: int, attempt: int = 0):
    """One benchmark process; attempt only tells repeated calls apart."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  "):
            printed[fields[0]] = fields[1:]
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    result, printed = invoke(workload, 1, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert printed[metric["name"]][1] == metric["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert printed["failed_run_ratio"][:2] == ["0", "ratio"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_for_same_seed(workload):
    first = invoke(workload, 1, 0)[1]["digest"][0]
    assert first.startswith("sha256:")
    assert invoke(workload, 1, 0, attempt=1)[1]["digest"][0] == first
    # a tiny grid already has one seed, so the traced passes run the same cells
    assert invoke(workload, 1, 1)[1]["digest"][0] == first


@pytest.mark.parametrize("workload", GENERATED)
def test_digest_differs_across_seeds(workload):
    assert invoke(workload, 1, 0)[1]["digest"] != invoke(workload, 2, 0)[1]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
