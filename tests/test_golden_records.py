"""Sweep records are pinned byte for byte.

A small fixed grid is swept into a fresh records directory and the sha256
of its files, in name order, is compared with a constant. Any change to
what a record holds, to how it is serialised, or to the key it is filed
under fails here, so a change that alters record bytes has to replace
RECORDS_SHA256 on purpose and say so.
"""
from __future__ import annotations

import hashlib
import os

from blocksched.model import load_scenario
from blocksched.runner import RunParams, run_sweep
from blocksched.schedulers import SCHEDULER_NAMES
from blocksched.traces import parse_csv_trace
from conftest import CORPUS_DIR, SCENARIO_DIR, deep_queue_inputs

CORPUS_TRACES = ("ramp09.csv", "sq01.csv")
RECORDS_SHA256 = "0a8d546f5e538f4cdb5ffc6b3db084c1f857d2a9497abb3e4d8184b49baf9bd4"


def corpus_trace(name):
    """A bundled trace tagged with its path relative to the repository, so
    the records do not depend on where the checkout lives."""
    with open(os.path.join(CORPUS_DIR, name)) as fh:
        return parse_csv_trace(fh, source_tag="traces/synthetic/" + name)


def records_digest(records_dir) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(records_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(records_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_golden_grid_records_are_unchanged(tmp_path):
    records_dir = str(tmp_path / "records")
    scenario_1 = load_scenario(os.path.join(SCENARIO_DIR, "scenario_1.json"))
    run_sweep([corpus_trace(name) for name in CORPUS_TRACES], [scenario_1], SCHEDULER_NAMES,
              [0], RunParams(duration_s=8.0), records_dir=records_dir)
    deep_scenario, deep_trace = deep_queue_inputs()
    run_sweep([deep_trace], [deep_scenario], SCHEDULER_NAMES, [0], RunParams(duration_s=6.0),
              records_dir=records_dir)
    assert len(os.listdir(records_dir)) == 3 * len(SCHEDULER_NAMES)
    assert records_digest(records_dir) == RECORDS_SHA256
