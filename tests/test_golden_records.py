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
import json
import os

import pytest

from blocksched.metrics import run_report_json
from blocksched.model import load_scenario
from blocksched.runner import RunParams, execute_run, run_sweep
from blocksched.schedulers import SCHEDULER_NAMES
from blocksched.traces import parse_csv_trace
from conftest import CORPUS_DIR, SCENARIO_DIR, deep_queue_inputs

CORPUS_TRACES = ("ramp09.csv", "sq01.csv")
RECORDS_SHA256 = "4d38691c6fba3f0d035442164517d26ecf1fad01b1755bebc677136bcb68b4f3"
# both sweeps' tables, scenario_1 first, concatenated
TABLE_TEXT_SHA256 = "5728ffe708668fe8626a93c4193465dd2523f1835e0ff660d245d23a348ce06a"
TABLE_JSONL_SHA256 = "05634623fab119914a307a024307e05ea8b1faa66e11fcb0805a5a57d76351b2"
# `run` report JSON of proposed on scenario_1 over sq01, seed 0, 8 s
RUN_REPORT_SHA256 = "dc3fdcdd38f4dde223d359132bab73d49e93929c91e6da637b233c3cd6ad0f50"
# `run --event-log` JSON lines of each policy: scenario_1 over sq01, seed 0,
# 8 s, and the deep-queue inputs, seed 0, 6 s. Decision lines carry the
# reason, score and eligible count, so a changed choice or ranking shows.
EVENT_LOG_SHA256 = {
    "sq01": {
        "proposed": "cb95b6a75a0d2cd5b1f03bb46423fead85bbb6c1e063667abadbb5b026bec540",
        "fifo": "488689d19cceb8fcf79c4aef1647df027cfe843ca72293db8d7b055c7962e79c",
        "ldf": "d0c03187963c55617949a45196ee0c2bed87487f11ea9355894a13de220e40be",
        "rswn": "8463f97b41ed34fd9a5ac9b198eeaa1e63281712641d00abb3111568b8b01c46",
    },
    "deep_queue": {
        "proposed": "fad0e701e08431a970b5dae7aaaa2d5709830c55d074db2dad00e75088299eb0",
        "fifo": "7c25fc035225912f58dd1d36f645832214710f634cf2267607c0e5710d44db93",
        "ldf": "05398d7b96a533b4691d521c1aeef662be05ecd3c23068b396e75a8cbacdb0a1",
        "rswn": "cd67f4e140bc66d0626617a505f4c17f710a78ce640d692caf2264318923090c",
    },
}


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
    """The report `blocksched run` prints, built by the CLI's helper."""
    result, report = execute_run(corpus_trace("sq01.csv"), scenario_1(), "proposed",
                                 RunParams(duration_s=8.0))
    assert sha256_text(run_report_json(result, report)) == RUN_REPORT_SHA256


def event_log_inputs(place):
    """(trace, scenario, params) of one pinned event-log place."""
    if place == "sq01":
        return corpus_trace("sq01.csv"), scenario_1(), RunParams(duration_s=8.0)
    scenario, trace = deep_queue_inputs()
    return trace, scenario, RunParams(duration_s=6.0)


@pytest.mark.parametrize("place", sorted(EVENT_LOG_SHA256))
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_golden_event_log_is_unchanged(place, name):
    """The lines `blocksched run --event-log` writes, hashed as written."""
    digest = hashlib.sha256()
    trace, scenario, params = event_log_inputs(place)
    execute_run(trace, scenario, name, params,
                record=lambda rec: digest.update((json.dumps(rec, sort_keys=True) + "\n").encode()))
    assert digest.hexdigest() == EVENT_LOG_SHA256[place][name]
