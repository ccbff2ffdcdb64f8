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
        s = bench_pairs.summarize_metric(parent, change, "higher")
        assert (s["pairs"], s["pairs_won"], s["pairs_lost"]) == (5, 3, 1)  # one tie
        assert s["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
        assert s["change"] == {"median": 6.0, "q1": 4.5, "q3": 7.5}
        assert s["median_gain"] == 1.0
        assert s["parent_iqr"] == 1.0

    def test_lower_is_better(self):
        parent = [200.0, 180.0, 190.0]
        change = [150.0, 185.0, 140.0]
        s = bench_pairs.summarize_metric(parent, change, "lower")
        assert (s["pairs_won"], s["pairs_lost"]) == (2, 1)
        assert s["median_gain"] == 40.0  # 190 -> 150, a gain when lower is better

    def test_worse_change_has_a_negative_gain(self):
        s = bench_pairs.summarize_metric([1.0, 1.0], [0.5, 0.5], "higher")
        assert (s["pairs_won"], s["pairs_lost"], s["median_gain"]) == (0, 2, -0.5)

    @pytest.mark.parametrize("parent, change, better", [
        ([1.0], [1.0, 2.0], "higher"), ([], [], "higher"), ([1.0], [1.0], "faster")])
    def test_bad_inputs_rejected(self, parent, change, better):
        with pytest.raises(ValueError):
            bench_pairs.summarize_metric(parent, change, better)
