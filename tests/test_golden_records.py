"""Sweep records, tables and run reports are pinned byte for byte.

A small fixed grid is swept into a fresh records directory and the sha256
of its files, in name order, is compared with a constant. Any change to
what a record holds, to how it is serialised, or to the key it is filed
under fails here, so a change that alters record bytes has to replace
RECORDS_SHA256 on purpose and say so. The same holds for the sweep's
comparison tables (text and JSON lines) and for the `run` report of one
grid cell, per-block outcomes included.
"""
from __future__ import annotations

import hashlib
import os

import pytest

from blocksched.model import load_scenario
from blocksched.runner import RunParams, execute_run, run_sweep
from blocksched.schedulers import SCHEDULER_NAMES
from blocksched.traces import parse_csv_trace
from conftest import CORPUS_DIR, SCENARIO_DIR, deep_queue_inputs

CORPUS_TRACES = ("ramp09.csv", "sq01.csv")
RECORDS_SHA256 = "0a8d546f5e538f4cdb5ffc6b3db084c1f857d2a9497abb3e4d8184b49baf9bd4"
# both sweeps' tables, scenario_1 first, concatenated
TABLE_TEXT_SHA256 = "b35c16f53b9847b99b1bb7de41acf89ceaab422930b911e326113e6e91428be4"
TABLE_JSONL_SHA256 = "8d171bb92e308902cce0886a21734db9fcc4b3bfdd488fb4a2f40416776db7aa"
# `run` report JSON of proposed on scenario_1 over sq01, seed 0, 8 s
RUN_REPORT_SHA256 = "dc3fdcdd38f4dde223d359132bab73d49e93929c91e6da637b233c3cd6ad0f50"


def corpus_trace(name):
    """A bundled trace tagged with its path relative to the repository, so
    the records do not depend on where the checkout lives."""
    with open(os.path.join(CORPUS_DIR, name)) as fh:
        return parse_csv_trace(fh, source_tag="traces/synthetic/" + name)


def scenario_1():
    return load_scenario(os.path.join(SCENARIO_DIR, "scenario_1.json"))


def records_digest(records_dir) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(records_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(records_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_sweep(tmp_path_factory):
    """The golden grid swept once: (records dir, the two sweeps' tables)."""
    records_dir = str(tmp_path_factory.mktemp("golden") / "records")
    first = run_sweep([corpus_trace(name) for name in CORPUS_TRACES], [scenario_1()],
                      SCHEDULER_NAMES, [0], RunParams(duration_s=8.0), records_dir=records_dir)
    deep_scenario, deep_trace = deep_queue_inputs()
    second = run_sweep([deep_trace], [deep_scenario], SCHEDULER_NAMES, [0],
                       RunParams(duration_s=6.0), records_dir=records_dir)
    return records_dir, (first, second)


def test_golden_grid_records_are_unchanged(golden_sweep):
    records_dir, _ = golden_sweep
    assert len(os.listdir(records_dir)) == 3 * len(SCHEDULER_NAMES)
    assert records_digest(records_dir) == RECORDS_SHA256


def test_golden_tables_are_unchanged(golden_sweep):
    _, tables = golden_sweep
    assert sha256_text("".join(t.to_text() for t in tables)) == TABLE_TEXT_SHA256
    assert sha256_text("".join(t.to_json_lines() for t in tables)) == TABLE_JSONL_SHA256


def test_golden_run_report_is_unchanged():
    _, report = execute_run(corpus_trace("sq01.csv"), scenario_1(), "proposed",
                            RunParams(duration_s=8.0))
    assert sha256_text(report.to_json()) == RUN_REPORT_SHA256
