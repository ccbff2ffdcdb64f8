"""The paired-bench script's summary arithmetic, on fixed inputs."""
from __future__ import annotations

import importlib.util
import os

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO_ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class TestQuartiles:
    def test_median_and_exclusive_quartiles(self):
        # exclusive method on 1..8: positions 2.25, 4.5 and 6.75
        assert bench_pairs.quartiles([8, 1, 7, 2, 6, 3, 5, 4]) == {
            "median": 4.5, "q1": 2.25, "q3": 6.75}

    def test_single_run_is_all_three(self):
        assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


class TestSummarizeMetric:
    def test_higher_is_better(self):
        parent = [4.0, 5.0, 6.0, 5.0, 5.0]
        change = [6.0, 5.0, 7.0, 4.0, 8.0]
        s = bench_pairs.summarize_metric(parent, change, "higher", 0.25)
        assert (s["pairs"], s["pairs_won"], s["pairs_lost"]) == (5, 3, 1)  # one tie
        assert s["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
        assert s["change"] == {"median": 6.0, "q1": 4.5, "q3": 7.5}
        assert s["median_gain"] == 1.0
        assert s["parent_iqr"] == 1.0

    def test_lower_is_better(self):
        parent = [200.0, 180.0, 190.0]
        change = [150.0, 185.0, 140.0]
        s = bench_pairs.summarize_metric(parent, change, "lower", 0.25)
        assert (s["pairs_won"], s["pairs_lost"]) == (2, 1)
        assert s["median_gain"] == 40.0  # 190 -> 150, a gain when lower is better

    def test_worse_change_has_a_negative_gain(self):
        s = bench_pairs.summarize_metric([1.0, 1.0], [0.5, 0.5], "higher", 0.25)
        assert (s["pairs_won"], s["pairs_lost"], s["median_gain"]) == (0, 2, -0.5)

    @pytest.mark.parametrize("parent, change, better", [
        ([1.0], [1.0, 2.0], "higher"), ([], [], "higher"), ([1.0], [1.0], "faster")])
    def test_bad_inputs_rejected(self, parent, change, better):
        with pytest.raises(ValueError):
            bench_pairs.summarize_metric(parent, change, better, 0.25)


class TestVerdicts:
    PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]

    # (gain per pair, pairs won, resolved): the parent's IQR is 5.5, and
    # ceil(0.9 * 10) = 9 pairs must be won
    @pytest.mark.parametrize("gains, won, resolved", [
        ([10.0] * 10, 10, True),
        ([10.0] * 8 + [-1.0] * 2, 8, False),  # too few pairs won
        ([2.0] * 10, 10, False),  # a gap inside the parent's IQR
        ([5.5] * 10, 10, False),  # a gap equal to it
    ], ids=["resolved", "too-few-pairs", "gap-inside-iqr", "gap-at-iqr"])
    def test_resolved(self, gains, won, resolved):
        change = [v + g for v, g in zip(self.PARENT, gains)]
        s = bench_pairs.summarize_metric(self.PARENT, change, "higher", 0.25)
        assert s["pairs_won"] == won and s["parent_iqr"] == 5.5
        assert s["resolved"] is resolved
        assert s["within_bound"]

    @pytest.mark.parametrize("better, change, within", [
        ("higher", 80.0, True), ("higher", 75.0, True), ("higher", 74.0, False),
        ("lower", 120.0, True), ("lower", 125.0, True), ("lower", 126.0, False)])
    def test_within_bound_is_relative_to_the_parent_median(self, better, change, within):
        s = bench_pairs.summarize_metric([100.0] * 3, [change] * 3, better, 0.25)
        assert s["bound"] == 0.25
        assert s["within_bound"] is within
        assert not s["resolved"]


def test_cpu_summary_keeps_the_minimum():
    assert bench_pairs.summarize_cpu([3.0, 1.0, 2.0]) == {
        "min": 1.0, "median": 2.0, "q1": 1.0, "q3": 3.0}


def test_run_bench_records_the_child_cpu_time(tmp_path):
    # a stand-in benchmark that spins for about 0.2 s of CPU and prints a
    # digest and a result line, as perfbench/run.py does
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, time\n"
        "end = time.process_time() + 0.2\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "print('  digest   sha256:' + 'ab' * 32 + '  (1 records)')\n"
        "print(json.dumps({'metrics': {}, 'failed': 0, 'attempted': 1}))\n")
    result = bench_pairs.run_bench(str(tmp_path), "headline", 1, 1.0, 0)
    assert result["digest"] == "ab" * 32
    assert 0.15 <= result["cpu_s"] < 5.0
